package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ladder/internal/fault"
	"ladder/internal/memctrl"
	"ladder/internal/metrics"
)

// StripVolatile is the single-run counterpart of
// GridReport.StripVolatile, for tests that compare single-run reports
// byte for byte: it zeroes WallClockMS and removes the wall-clock
// counter from the metrics snapshot, leaving only seed-deterministic
// fields. Returns the receiver.
func (r *Report) StripVolatile() *Report {
	r.WallClockMS = 0
	stripVolatileSnapshot(&r.Metrics)
	return r
}

// TestReportEndToEnd runs a short simulation and checks the structured
// report: schema-valid JSON, a RESET-latency histogram with mass spread
// over more than one bucket (the location/content spread the timing
// tables encode), and ordered quantiles.
func TestReportEndToEnd(t *testing.T) {
	cfg := testConfig(t, "lbm", SchemeHybrid)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("Run returned a nil metrics registry")
	}
	if res.InstructionsRetired == 0 {
		t.Fatal("no instructions retired")
	}
	if res.WallClock <= 0 {
		t.Fatal("wall clock not measured")
	}

	rep := NewReport(res)
	if rep.Schema != ReportSchema {
		t.Fatalf("schema %q, want %q", rep.Schema, ReportSchema)
	}

	// JSON round trip: the emitted document must parse back into the
	// same shape with the schema marker and metrics sections intact.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Schema  string `json:"schema"`
		Metrics struct {
			Counters   map[string]uint64          `json:"counters"`
			Histograms map[string]json.RawMessage `json:"histograms"`
		} `json:"metrics"`
		ResetLatency struct {
			Count uint64  `json:"count"`
			P50   float64 `json:"p50_ns"`
			P95   float64 `json:"p95_ns"`
			P99   float64 `json:"p99_ns"`
			Max   float64 `json:"max_ns"`
		} `json:"reset_latency"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if decoded.Schema != ReportSchema {
		t.Fatalf("decoded schema %q", decoded.Schema)
	}
	if len(decoded.Metrics.Counters) == 0 {
		t.Fatal("report carries no counters")
	}

	// The run writes data, so the merged RESET-latency histogram must
	// have observations, spread over more than one bucket, with ordered
	// quantiles.
	rl := decoded.ResetLatency
	if rl.Count == 0 {
		t.Fatal("no RESET latencies recorded")
	}
	if !(rl.P50 <= rl.P95 && rl.P95 <= rl.P99 && rl.P99 <= rl.Max) {
		t.Fatalf("quantiles out of order: p50 %.1f p95 %.1f p99 %.1f max %.1f",
			rl.P50, rl.P95, rl.P99, rl.Max)
	}
	snap := res.Metrics.Snapshot()
	nonzero := 0
	found := false
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "memctrl.") && strings.HasSuffix(name, resetLatencySuffix) {
			found = true
			n := 0
			for _, c := range h.Counts {
				if c > 0 {
					n++
				}
			}
			nonzero = max(nonzero, n)
			if h.Count > 0 && h.P50 > h.P99 {
				t.Fatalf("%s: p50 %.1f > p99 %.1f", name, h.P50, h.P99)
			}
		}
	}
	if !found {
		t.Fatal("no per-channel RESET-latency histograms in the snapshot")
	}
	if nonzero < 2 {
		t.Fatalf("RESET-latency mass confined to %d bucket(s); content/location spread not visible", nonzero)
	}

	// The bench snapshot exposes the quantile keys future perf PRs diff.
	bench := rep.Bench("test")
	for _, key := range []string{"reset_latency_p50_ns", "reset_latency_p95_ns", "reset_latency_p99_ns", "avg_ipc"} {
		if _, ok := bench.Metrics[key]; !ok {
			t.Fatalf("bench snapshot missing %q", key)
		}
	}
}

// TestReportMetricsConsistency cross-checks the exported counters
// against the Result's own accounting: the registry is a projection of
// the run, not a second source of truth.
func TestReportMetricsConsistency(t *testing.T) {
	cfg := testConfig(t, "astar", SchemeEst)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Metrics.Snapshot()
	checks := map[string]uint64{
		"sim.ticks":                res.Ticks,
		"sim.instructions_retired": res.InstructionsRetired,
		"core.traffic.data_writes": res.Stats.DataWrites,
		"core.traffic.meta_reads":  res.Stats.MetaReads,
		"core.meta_cache.hits":     res.Stats.MetaCacheHits,
		"core.meta_cache.misses":   res.Stats.MetaCacheMisses,
	}
	for name, want := range checks {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("%s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	// Per-bank write counters must sum to the store's total.
	var bankSum uint64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "reram.") && strings.HasSuffix(name, ".writes") {
			bankSum += v
		}
	}
	if bankSum != res.TotalStoreWrites {
		t.Errorf("per-bank writes sum %d, store total %d", bankSum, res.TotalStoreWrites)
	}
}

// TestGridReportMerge checks that grid reports merge per-run registries:
// the aggregate RESET histogram carries every cell's observations.
func TestGridReportMerge(t *testing.T) {
	grid, err := RunGrid(Options{
		Instr: 10_000, Seed: 7, Tables: smallTables(t),
		Workloads: []string{"astar"},
	}, []string{SchemeBaseline, SchemeEst})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := NewGridReport(grid)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Schema != GridReportSchema {
		t.Fatalf("schema %q", gr.Schema)
	}
	if len(gr.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(gr.Cells))
	}
	var cellTotal uint64
	for _, c := range gr.Cells {
		cellTotal += c.ResetLatency.Count
	}
	merged := summarizeResetLatency(gr.Metrics)
	if merged.Count != cellTotal {
		t.Fatalf("merged RESET count %d, cells sum to %d", merged.Count, cellTotal)
	}
	var buf bytes.Buffer
	if err := gr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("grid report is not valid JSON")
	}
}

// TestRunGridJoinsAllErrors pins the errors.Join aggregation: two
// independent failing cells must both surface, not just the first.
func TestRunGridJoinsAllErrors(t *testing.T) {
	_, err := RunGrid(Options{
		Instr: 1_000, Tables: smallTables(t),
		Workloads: []string{"bogus-one", "bogus-two"},
	}, []string{SchemeBaseline})
	if err == nil {
		t.Fatal("expected errors for unknown workloads")
	}
	for _, want := range []string{"bogus-one", "bogus-two"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("aggregated error missing %q: %v", want, err)
		}
	}
}

// TestReportLatencyDeterministicAcrossChannels pins "a fixed seed gives
// a byte-identical report" beyond the default two channels: the merged
// RESET and retry latency summaries add one float sum per channel, and
// with three channels the result depends on the order of the additions,
// so the merge must not follow map iteration order.
func TestReportLatencyDeterministicAcrossChannels(t *testing.T) {
	reg := metrics.NewRegistry()
	for ch, ns := range []float64{0.1, 0.2, 0.3} {
		for _, suffix := range []string{resetLatencySuffix, retryLatencySuffix} {
			name := fmt.Sprintf("memctrl.ch%d%s", ch, suffix)
			reg.Histogram(name, memctrl.ResetLatencyBounds()).Observe(ns)
		}
	}
	res := &Result{Workload: "lbm", Scheme: SchemeHybrid, Metrics: reg, Faults: &fault.Stats{}}
	var first []byte
	for i := 0; i < 200; i++ {
		var buf bytes.Buffer
		if err := NewReport(res).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("report %d differs from report 0 on the same three-channel result", i)
		}
	}
}
