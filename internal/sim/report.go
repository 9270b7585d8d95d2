package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"ladder/internal/fault"
	"ladder/internal/metrics"
	"ladder/internal/remap"
	"ladder/internal/timeline"
	"ladder/internal/tracing"
)

// ReportSchema versions the run-report JSON layout. Consumers should
// reject reports whose schema string they do not recognize.
const ReportSchema = "ladder.run-report/v3"

// BenchSchema versions the perf-snapshot (BENCH_*.json) layout.
const BenchSchema = "ladder.bench/v1"

// GridReportSchema versions the multi-run grid-report layout.
const GridReportSchema = "ladder.grid-report/v3"

// LifetimeReportSchema versions the lifetime-sweep report layout
// (see LifetimeSweep in experiments.go).
const LifetimeReportSchema = "ladder.lifetime-report/v1"

// resetLatencySuffix is the per-channel RESET histogram name suffix; the
// full names are "memctrl.ch<N>.reset_latency_ns" (docs/METRICS.md).
const resetLatencySuffix = ".reset_latency_ns"

// retryLatencySuffix is the per-channel reissue-pulse histogram name
// suffix ("memctrl.ch<N>.retry_latency_ns"); present on fault-injection
// runs only.
const retryLatencySuffix = ".retry_latency_ns"

// ResetLatencySummary condenses the system-wide RESET-latency
// distribution (all channels merged): the content/location spread the
// paper's Figure 11 surface predicts, as observed during the run.
type ResetLatencySummary struct {
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P95Ns  float64 `json:"p95_ns"`
	P99Ns  float64 `json:"p99_ns"`
	MaxNs  float64 `json:"max_ns"`
}

// Report is the structured, serializable record of one simulation run:
// identity, headline summary numbers, and the full metrics snapshot.
// WriteJSON emits the stable machine-readable form (schema
// "ladder.run-report/v3"); laddersim prints the human summary.
type Report struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`

	InstructionsRetired uint64  `json:"instructions_retired"`
	Ticks               uint64  `json:"ticks"`
	AvgIPC              float64 `json:"avg_ipc"`
	WallClockMS         float64 `json:"wall_clock_ms"`

	DataReads  uint64 `json:"data_reads"`
	DataWrites uint64 `json:"data_writes"`
	MetaReads  uint64 `json:"meta_reads"`
	MetaWrites uint64 `json:"meta_writes"`

	AvgWriteServiceNs float64 `json:"avg_write_service_ns"`
	AvgReadLatencyNs  float64 `json:"avg_read_latency_ns"`
	ReadNJ            float64 `json:"read_nj"`
	WriteNJ           float64 `json:"write_nj"`
	GapMoves          uint64  `json:"gap_moves"`

	// ResetLatency merges the per-channel RESET histograms into the
	// system-wide latency distribution.
	ResetLatency ResetLatencySummary `json:"reset_latency"`

	// Metrics is the full instrument snapshot (every name cataloged in
	// docs/METRICS.md).
	Metrics metrics.Snapshot `json:"metrics"`

	// Trace summarizes the run's transaction tracing (sampling rate,
	// span accounting, slowest writes); present only on traced runs.
	Trace *tracing.Summary `json:"trace,omitempty"`

	// Faults is the fault-injection section (docs/FAULTS.md); present only
	// on runs with Config.FaultRate > 0.
	Faults *FaultSummary `json:"faults,omitempty"`

	// Remap is the programmable-address-decoder section (docs/REMAP.md):
	// gap moves, spare-row remaps and indirection-penalty accounting.
	// Present only on runs where the decoder is built (wear leveling,
	// fault injection, or proactive retirement enabled).
	Remap *remap.Stats `json:"remap,omitempty"`

	// Timeline is the per-epoch series (docs/TIMELINE.md, schema
	// "ladder.timeline/v1"); present only on runs with
	// Config.TimelineInterval > 0. It carries no host-timing fields, so
	// StripVolatile leaves it untouched.
	Timeline *timeline.Timeline `json:"timeline,omitempty"`
}

// FaultSummary is the report's fault-injection section: the injector's
// verdict/retry/remap accounting plus the merged distribution of
// escalated reissue-pulse latencies.
type FaultSummary struct {
	fault.Stats
	RetryLatency ResetLatencySummary `json:"retry_latency"`
}

// NewReport freezes a Result into its report form.
func NewReport(res *Result) *Report {
	snap := res.Metrics.Snapshot()
	r := &Report{
		Schema:              ReportSchema,
		Workload:            res.Workload,
		Scheme:              res.Scheme,
		InstructionsRetired: res.InstructionsRetired,
		Ticks:               res.Ticks,
		AvgIPC:              res.AvgIPC(),
		WallClockMS:         float64(res.WallClock.Microseconds()) / 1e3,
		DataReads:           res.Stats.DataReads,
		DataWrites:          res.Stats.DataWrites,
		MetaReads:           res.Stats.MetaReads,
		MetaWrites:          res.Stats.MetaWrites,
		AvgWriteServiceNs:   res.Stats.AvgWriteServiceNs(),
		AvgReadLatencyNs:    res.Stats.AvgReadLatencyNs(),
		ReadNJ:              res.ReadNJ,
		WriteNJ:             res.WriteNJ,
		Metrics:             snap,
	}
	r.ResetLatency = summarizeResetLatency(snap)
	if res.Trace != nil {
		sum := res.Trace.Summary()
		r.Trace = &sum
	}
	if res.Faults != nil {
		r.Faults = &FaultSummary{
			Stats:        *res.Faults,
			RetryLatency: summarizeLatency(snap, retryLatencySuffix),
		}
	}
	if res.Remap != nil {
		st := *res.Remap
		r.Remap = &st
		r.GapMoves = st.GapMoves
	}
	r.Timeline = res.Timeline
	return r
}

// summarizeResetLatency merges every per-channel RESET histogram in the
// snapshot.
func summarizeResetLatency(snap metrics.Snapshot) ResetLatencySummary {
	return summarizeLatency(snap, resetLatencySuffix)
}

// summarizeLatency merges every per-channel memctrl histogram with the
// given name suffix, in sorted-name order so the float sums, and with
// them the mean, are the same on every call. All channels share
// ResetLatencyBounds(), so the merge cannot fail on bounds; a foreign
// snapshot with mismatched bounds yields the partial merge accumulated
// so far.
func summarizeLatency(snap metrics.Snapshot, suffix string) ResetLatencySummary {
	var names []string
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "memctrl.") && strings.HasSuffix(name, suffix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var merged metrics.HistogramSnapshot
	for _, name := range names {
		if m, err := merged.Merge(snap.Histograms[name]); err == nil {
			merged = m
		}
	}
	return ResetLatencySummary{
		Count:  merged.Count,
		MeanNs: merged.Mean,
		P50Ns:  merged.P50,
		P95Ns:  merged.P95,
		P99Ns:  merged.P99,
		MaxNs:  merged.Max,
	}
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// PerfSnapshot flattens the report into the name→value map stored in
// BENCH_*.json files: the numbers future performance PRs are compared
// against. Keys are stable; additions are fine, renames are not.
func (r *Report) PerfSnapshot() map[string]float64 {
	m := map[string]float64{
		"avg_ipc":              r.AvgIPC,
		"instructions_retired": float64(r.InstructionsRetired),
		"ticks":                float64(r.Ticks),
		"wall_clock_ms":        r.WallClockMS,
		"avg_write_service_ns": r.AvgWriteServiceNs,
		"avg_read_latency_ns":  r.AvgReadLatencyNs,
		"reset_latency_p50_ns": r.ResetLatency.P50Ns,
		"reset_latency_p95_ns": r.ResetLatency.P95Ns,
		"reset_latency_p99_ns": r.ResetLatency.P99Ns,
		"reset_latency_max_ns": r.ResetLatency.MaxNs,
	}
	if r.WallClockMS > 0 {
		m["instr_per_sec"] = float64(r.InstructionsRetired) / (r.WallClockMS / 1e3)
	}
	return m
}

// BenchProvenance records where a perf snapshot was measured: the Go
// toolchain, the parallelism it ran under, and an optional free-form
// label (e.g. the CI runner class). Comparing snapshots from different
// provenances is comparing different machines — the ratchet prints it so
// regressions can be triaged against environment drift.
type BenchProvenance struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Label      string `json:"label,omitempty"`
}

// BenchReport is the BENCH_*.json document: a named perf snapshot.
type BenchReport struct {
	Schema   string             `json:"schema"`
	Name     string             `json:"name"`
	Workload string             `json:"workload"`
	Scheme   string             `json:"scheme"`
	Metrics  map[string]float64 `json:"metrics"`
	// Provenance stamps the measurement environment; absent on snapshots
	// taken before it existed.
	Provenance *BenchProvenance `json:"provenance,omitempty"`
}

// Bench derives the BENCH_*.json document from the report.
func (r *Report) Bench(name string) *BenchReport {
	return &BenchReport{
		Schema:   BenchSchema,
		Name:     name,
		Workload: r.Workload,
		Scheme:   r.Scheme,
		Metrics:  r.PerfSnapshot(),
	}
}

// WriteJSON emits the bench document as indented JSON.
func (b *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// LifetimeReport serializes a LifetimeSweep: identity, the swept knob
// grids, per-combination cells and the merged decoder accounting (the
// top-level "remap" object CI smoke checks assert against).
type LifetimeReport struct {
	Schema     string         `json:"schema"`
	Scheme     string         `json:"scheme"`
	Workloads  []string       `json:"workloads"`
	GapPeriods []int          `json:"gap_periods"`
	SpareRows  []int          `json:"spare_rows"`
	Cells      []LifetimeCell `json:"cells"`
	Remap      remap.Stats    `json:"remap"`
}

// Report freezes the study into its serializable form.
func (s *LifetimeStudy) Report() *LifetimeReport {
	return &LifetimeReport{
		Schema:     LifetimeReportSchema,
		Scheme:     s.Scheme,
		Workloads:  append([]string(nil), s.Workloads...),
		GapPeriods: append([]int(nil), s.GapPeriods...),
		SpareRows:  append([]int(nil), s.SpareRows...),
		Cells:      append([]LifetimeCell(nil), s.Cells...),
		Remap:      s.Remap,
	}
}

// WriteJSON emits the lifetime report as indented JSON.
func (r *LifetimeReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// GridCell is one (workload, scheme) run's headline numbers inside a
// GridReport; the full per-run instrument snapshots are merged into the
// grid-level Metrics rather than repeated per cell.
type GridCell struct {
	Workload            string              `json:"workload"`
	Scheme              string              `json:"scheme"`
	AvgIPC              float64             `json:"avg_ipc"`
	InstructionsRetired uint64              `json:"instructions_retired"`
	WallClockMS         float64             `json:"wall_clock_ms"`
	AvgWriteServiceNs   float64             `json:"avg_write_service_ns"`
	AvgReadLatencyNs    float64             `json:"avg_read_latency_ns"`
	ResetLatency        ResetLatencySummary `json:"reset_latency"`
}

// GridReport serializes a whole experiment grid: per-cell summaries plus
// the metrics union (counters add, histograms add bucket-wise) across
// every run.
type GridReport struct {
	Schema    string           `json:"schema"`
	Workloads []string         `json:"workloads"`
	Schemes   []string         `json:"schemes"`
	Cells     []GridCell       `json:"cells"`
	Metrics   metrics.Snapshot `json:"metrics"`
	// Timeline is the union of every cell's per-epoch series (deltas add
	// across cells, epochs aligned by index; see timeline.Merge). Present
	// only when the grid ran with Options.Base.TimelineInterval > 0.
	Timeline *timeline.Timeline `json:"timeline,omitempty"`
}

// MergedMetrics folds every cell's registry into one snapshot. All cells
// use identical instrument shapes, so the merge only fails on a grid
// whose results were built outside Run.
func (g *Grid) MergedMetrics() (metrics.Snapshot, error) {
	agg := metrics.NewRegistry()
	for _, w := range g.Workloads {
		for _, s := range g.Schemes {
			res := g.Results[w][s]
			if res == nil || res.Metrics == nil {
				continue
			}
			if err := agg.Merge(res.Metrics); err != nil {
				return metrics.Snapshot{}, fmt.Errorf("sim: merging %s/%s metrics: %w", w, s, err)
			}
		}
	}
	return agg.Snapshot(), nil
}

// NewGridReport freezes an experiment grid into its report form. Cells
// are ordered workload-major, scheme-minor, matching the grid's own
// iteration order.
func NewGridReport(g *Grid) (*GridReport, error) {
	merged, err := g.MergedMetrics()
	if err != nil {
		return nil, err
	}
	gr := &GridReport{
		Schema:    GridReportSchema,
		Workloads: append([]string(nil), g.Workloads...),
		Schemes:   append([]string(nil), g.Schemes...),
		Metrics:   merged,
	}
	for _, w := range g.Workloads {
		for _, s := range g.Schemes {
			res := g.Results[w][s]
			if res == nil {
				continue
			}
			if res.Timeline != nil {
				gr.Timeline, err = timeline.Merge(gr.Timeline, res.Timeline)
				if err != nil {
					return nil, fmt.Errorf("sim: merging %s/%s timeline: %w", w, s, err)
				}
			}
			snap := res.Metrics.Snapshot()
			gr.Cells = append(gr.Cells, GridCell{
				Workload:            w,
				Scheme:              s,
				AvgIPC:              res.AvgIPC(),
				InstructionsRetired: res.InstructionsRetired,
				WallClockMS:         float64(res.WallClock.Microseconds()) / 1e3,
				AvgWriteServiceNs:   res.Stats.AvgWriteServiceNs(),
				AvgReadLatencyNs:    res.Stats.AvgReadLatencyNs(),
				ResetLatency:        summarizeResetLatency(snap),
			})
		}
	}
	return gr, nil
}

// WriteJSON emits the grid report as indented JSON.
func (g *GridReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// stripVolatileSnapshot removes host-timing artifacts from a metrics
// snapshot in place (see GridReport.StripVolatile).
func stripVolatileSnapshot(s *metrics.Snapshot) {
	delete(s.Counters, "sim.wall_clock_us")
}

// StripVolatile zeroes every host-timing field of the report in place —
// per-cell WallClockMS and the sim.wall_clock_us counter in the merged
// metrics — and returns the receiver. Everything else in a grid report
// is deterministic for a fixed seed, so two stripped reports of the same
// configuration marshal byte-identically regardless of Options.Jobs or
// host load. The parallel-determinism test and the service's cached
// responses rely on this.
func (g *GridReport) StripVolatile() *GridReport {
	for i := range g.Cells {
		g.Cells[i].WallClockMS = 0
	}
	stripVolatileSnapshot(&g.Metrics)
	return g
}

// StripVolatile is the single-run counterpart of
// GridReport.StripVolatile: it zeroes WallClockMS and removes the
// wall-clock counter from the metrics snapshot, leaving only
// seed-deterministic fields. Returns the receiver.
func (r *Report) StripVolatile() *Report {
	r.WallClockMS = 0
	stripVolatileSnapshot(&r.Metrics)
	return r
}
