package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"

	"ladder/internal/core"
	"ladder/internal/remap"
	"ladder/internal/reram"
	"ladder/internal/timing"
	"ladder/internal/trace"
)

// Options scopes an experiment run.
type Options struct {
	// Instr is the per-core instruction budget (0 = 200k).
	Instr uint64
	// Seed makes the experiment deterministic.
	Seed int64
	// Tables overrides the timing tables (nil = full 512×512 set).
	Tables *timing.TableSet
	// Workloads restricts the workload list (nil = all sixteen).
	Workloads []string
	// Jobs bounds how many cells simulate concurrently, where a cell is
	// one run of a grid or study (0 = runtime.NumCPU()). Each cell is an
	// independent run with its own store, Env and metrics registry, so
	// any Jobs value produces the same Grid or study rows; reports
	// derived from a Grid are byte-identical across Jobs settings once
	// volatile wall-clock fields are stripped (GridReport.StripVolatile).
	// Jobs=1 recovers fully sequential execution.
	Jobs int
	// Progress, when set, is invoked after each cell of a grid or study
	// finishes (successfully or not). Invocations are serialized under
	// the runner's callback mutex — the callback is never entered
	// concurrently, so consumers need no locking of their own — but it
	// runs on worker goroutines and must stay cheap; a slow callback
	// stalls cell completion.
	Progress func(GridProgress)
	// Base is the configuration every cell starts from: a cell is Base
	// with the cell's workload and scheme, the grid's Instr, Seed and
	// Tables, and the study's edit applied. Those five identity fields
	// belong to the grid, so a Base that sets any of them is rejected.
	// Base's own hooks (Progress, TimelineOnEpoch) are shared by every
	// cell and are not serialized: with Jobs > 1, cells call them
	// concurrently. A grid with Base.TimelineInterval set reports one
	// timeline merged from its cells' series.
	Base Config
}

// GridProgress reports one finished cell of a running grid or study. A
// study that runs in stages (LifetimeSweep) counts each stage from zero.
// Delivery is serialized (see Options.Progress): consumers never observe
// two callbacks at once, and Done is monotonically increasing across
// callbacks — though with Jobs > 1 the (Workload, Scheme) completion
// order varies run to run.
type GridProgress struct {
	// Done cells out of Total have finished (including failures).
	Done, Total int
	// Workload and Scheme identify the cell that just finished.
	Workload, Scheme string
	// Failed marks a cell whose run returned an error.
	Failed bool
}

func (o Options) workloads() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return trace.AllWorkloads()
}

// config is a cell's configuration before its study edit.
func (o Options) config(workload, scheme string) Config {
	cfg := o.Base
	cfg.Workload, cfg.Scheme = workload, scheme
	cfg.InstrPerCore, cfg.Seed, cfg.Tables = o.Instr, o.Seed, o.Tables
	return cfg
}

// Validate rejects Options no grid or study can run: a negative Jobs, a
// Base that sets a field the grid sets per cell, or a Base knob outside
// its range (see Config). Every grid and study calls it before any cell
// runs; a front end may call it earlier to fail before any output.
func (o Options) Validate() error {
	if o.Jobs < 0 {
		return fmt.Errorf("sim: Options.Jobs must be >= 0 (0 = one worker per CPU), got %d", o.Jobs)
	}
	var set []string
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"Workload", o.Base.Workload != ""},
		{"Scheme", o.Base.Scheme != ""},
		{"InstrPerCore", o.Base.InstrPerCore != 0},
		{"Seed", o.Base.Seed != 0},
		{"Tables", o.Base.Tables != nil},
	} {
		if f.set {
			set = append(set, f.name)
		}
	}
	if len(set) > 0 {
		return fmt.Errorf("sim: Options.Base sets %s; a grid sets these per cell (see Options)", strings.Join(set, ", "))
	}
	return o.Base.validateKnobs()
}

// Grid holds results for every (workload, scheme) pair of an experiment.
type Grid struct {
	Workloads []string
	Schemes   []string
	// Results[workload][scheme]
	Results map[string]map[string]*Result
}

// RunGrid simulates every workload under every scheme. Runs are
// independent (each builds its own memory image), so they execute on a
// worker pool sized by Options.Jobs (default: one worker per CPU).
func RunGrid(opts Options, schemes []string) (*Grid, error) {
	return RunGridCtx(context.Background(), opts, schemes)
}

// RunGridCtx is RunGrid under a context, with runCells' cancellation,
// failure, panic-isolation and determinism guarantees: a canceled or
// failed grid is returned as an error, never as a silently partial
// result.
//
// Scheme names resolve as Config.Scheme does (core.SchemeName), and the
// Grid is keyed by the registered spellings, so the normalized views
// find SchemeBaseline however the caller spelled it. An unknown name,
// or two names of one scheme, fails the grid before any cell runs.
func RunGridCtx(ctx context.Context, opts Options, schemes []string) (*Grid, error) {
	ws := opts.workloads()
	schemes, err := canonicalSchemes(schemes)
	if err != nil {
		return nil, err
	}
	variants := make([]cell, len(schemes))
	for i, s := range schemes {
		variants[i].scheme = s
	}
	res, err := runCells(ctx, opts, crossCells(ws, variants))
	if err != nil {
		return nil, err
	}
	g := &Grid{Workloads: ws, Schemes: schemes, Results: make(map[string]map[string]*Result, len(ws))}
	for i, w := range ws {
		g.Results[w] = make(map[string]*Result, len(schemes))
		for j, s := range schemes {
			g.Results[w][s] = res[i*len(schemes)+j]
		}
	}
	return g, nil
}

// canonicalSchemes resolves each name to its registered spelling,
// rejecting unknown names and repeats of one scheme.
func canonicalSchemes(names []string) ([]string, error) {
	out := make([]string, len(names))
	for i, n := range names {
		name, err := core.SchemeName(n)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		for j := range i {
			if out[j] == name {
				return nil, fmt.Errorf("sim: schemes %q and %q both name %s", names[j], n, name)
			}
		}
		out[i] = name
	}
	return out, nil
}

// cell is one simulation of a grid or study: a workload under a scheme,
// with an optional edit of the Config that Options derives for it.
type cell struct {
	workload, scheme string
	edit             func(*Config)
}

// crossCells lays out every workload under every variant (a cell whose
// workload is ignored), workload-major.
func crossCells(workloads []string, variants []cell) []cell {
	cells := make([]cell, 0, len(workloads)*len(variants))
	for _, w := range workloads {
		for _, v := range variants {
			v.workload = w
			cells = append(cells, v)
		}
	}
	return cells
}

// runCells is the one way experiments simulate: it runs cells on a
// worker pool sized by Options.Jobs and returns their results in cell
// order. Once ctx is canceled — or any cell fails — no further cell is
// dispatched, already-running cells abort at their next engine step (see
// RunCtx; a cell never stops mid-cycle), and every failure is reported
// via errors.Join alongside the context's error.
//
// A cell whose workload does not resolve fails the call before any cell
// runs, and the error names every such cell.
//
// Workers are panic-isolated: a panicking scheme or workload converts
// to that cell's error (a *PanicError carrying the stack) and joins the
// other failures instead of crashing the process.
//
// Determinism: each cell runs with its own metrics registry and memory
// image, and results follow cell order regardless of completion order,
// so they are independent of Options.Jobs and of scheduling. Cells take
// their resident rows and access streams from the process-wide registry
// (sharedInputs), as solo runs do: a row's content depends only on the
// resident level, the seed and the row, and a stream's only on its
// streamKey, so every cell's result is bit-identical to its solo Run.
// Options.Progress calls are serialized under one mutex.
func runCells(ctx context.Context, opts Options, cells []cell) ([]*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	cfgs := make([]Config, len(cells))
	var layoutErrs []error
	for i, c := range cells {
		cfg := opts.config(c.workload, c.scheme)
		if c.edit != nil {
			c.edit(&cfg)
		}
		cfgs[i] = cfg
		if _, err := coreStreams(&cfg); err != nil {
			layoutErrs = append(layoutErrs, fmt.Errorf("running %s/%s: %w", c.workload, c.scheme, err))
		}
	}
	if err := errors.Join(layoutErrs...); err != nil {
		return nil, err
	}
	results := make([]*Result, len(cells))
	// A cell failure cancels runCtx so queued cells never dispatch; the
	// caller's ctx flows through, so external cancellation behaves the
	// same way.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu         sync.Mutex // guards runErrs, done
		progressMu sync.Mutex // serializes opts.Progress
		runErrs    []error
		done       int
		wg         sync.WaitGroup
	)
	if opts.Jobs == 0 {
		opts.Jobs = runtime.NumCPU()
	}
	sem := make(chan struct{}, opts.Jobs)
	for i, c := range cells {
		if runCtx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			res, err := runCell(runCtx, cfgs[i])
			results[i] = res // each worker owns its slot; wg.Wait publishes it
			mu.Lock()
			done++
			n := done
			if err != nil {
				// Collect every cell's failure (cells are independent, so
				// one bad workload name should not mask another's error);
				// errors.Join reports them all. The cancel stops queued
				// cells from dispatching after the first failure.
				runErrs = append(runErrs, fmt.Errorf("running %s/%s: %w", c.workload, c.scheme, err))
				cancel()
			}
			mu.Unlock()
			if opts.Progress != nil {
				progressMu.Lock()
				opts.Progress(GridProgress{Done: n, Total: len(cells), Workload: c.workload, Scheme: c.scheme, Failed: err != nil})
				progressMu.Unlock()
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		runErrs = append(runErrs, fmt.Errorf("experiment canceled: %w", ctx.Err()))
	}
	if err := errors.Join(runErrs...); err != nil {
		return nil, err
	}
	return results, nil
}

// baseline returns a workload's baseline result, nil when the grid did
// not run SchemeBaseline. The views normalized to it (WriteServiceTime,
// ReadLatency, Speedup, DynamicEnergy) then report 0 for every cell.
func (g *Grid) baseline(workload string) *Result {
	return g.Results[workload][SchemeBaseline]
}

// Row is one workload's series values keyed by scheme (or series name).
type Row struct {
	Workload string
	Values   map[string]float64
}

// rows applies a per-result metric, normalized by the baseline metric
// when norm is set (0 for every cell of a workload without a baseline).
func (g *Grid) rows(metric func(*Result) float64, norm bool) []Row {
	out := make([]Row, 0, len(g.Workloads))
	for _, w := range g.Workloads {
		r := Row{Workload: w, Values: make(map[string]float64)}
		base, noBase := 1.0, false
		if norm {
			b := g.baseline(w)
			noBase = b == nil
			if !noBase {
				base = metric(b)
			}
		}
		for _, s := range g.Schemes {
			v := metric(g.Results[w][s])
			switch {
			case noBase:
				v = 0
			case norm && base > 0:
				v /= base
			}
			r.Values[s] = v
		}
		out = append(out, r)
	}
	return out
}

// Average appends an AVG row (arithmetic mean across workloads).
func Average(rows []Row) Row {
	avg := Row{Workload: "AVG", Values: make(map[string]float64)}
	if len(rows) == 0 {
		return avg
	}
	for _, r := range rows {
		for k, v := range r.Values {
			avg.Values[k] += v
		}
	}
	for k := range avg.Values {
		avg.Values[k] /= float64(len(rows))
	}
	return avg
}

// WriteServiceTime derives Figure 12: average write service time
// normalized to baseline.
func (g *Grid) WriteServiceTime() []Row {
	return g.rows(func(r *Result) float64 { return r.Stats.AvgWriteServiceNs() }, true)
}

// ReadLatency derives Figure 13: average processor read latency
// (queuing + service) normalized to baseline.
func (g *Grid) ReadLatency() []Row {
	return g.rows(func(r *Result) float64 { return r.Stats.AvgReadLatencyNs() }, true)
}

// ExtraReads and ExtraWrites derive Figure 14: metadata/SMB traffic
// relative to the baseline's data traffic.
func (g *Grid) ExtraReads() []Row {
	return g.rows(func(r *Result) float64 { return r.Stats.ExtraReadFraction() }, false)
}

// ExtraWrites derives Figure 14b.
func (g *Grid) ExtraWrites() []Row {
	return g.rows(func(r *Result) float64 { return r.Stats.ExtraWriteFraction() }, false)
}

// Speedup derives Figures 2 and 16: weighted speedup over baseline.
func (g *Grid) Speedup() []Row {
	out := make([]Row, 0, len(g.Workloads))
	for _, w := range g.Workloads {
		base := g.baseline(w)
		r := Row{Workload: w, Values: make(map[string]float64)}
		for _, s := range g.Schemes {
			r.Values[s] = g.Results[w][s].WeightedSpeedup(base)
		}
		out = append(out, r)
	}
	return out
}

// EnergySplit is one workload's dynamic-energy breakdown per scheme,
// normalized to the baseline total (Figure 17).
type EnergySplit struct {
	Workload string
	// Read and Write are normalized energies keyed by scheme.
	Read, Write map[string]float64
}

// DynamicEnergy derives Figure 17.
func (g *Grid) DynamicEnergy() []EnergySplit {
	out := make([]EnergySplit, 0, len(g.Workloads))
	for _, w := range g.Workloads {
		total := 0.0
		if base := g.baseline(w); base != nil {
			total = base.ReadNJ + base.WriteNJ
		}
		es := EnergySplit{Workload: w, Read: map[string]float64{}, Write: map[string]float64{}}
		for _, s := range g.Schemes {
			r := g.Results[w][s]
			if total > 0 {
				es.Read[s] = r.ReadNJ / total
				es.Write[s] = r.WriteNJ / total
			}
		}
		out = append(out, es)
	}
	return out
}

// CounterDiffs derives Figure 15: the mean (estimated − accurate) C_lrs
// gap for LADDER-Est without (a) and with (b) intra-line shifting. The
// grid must include SchemeEst and SchemeEstNoShift.
func (g *Grid) CounterDiffs() []Row {
	out := make([]Row, 0, len(g.Workloads))
	for _, w := range g.Workloads {
		r := Row{Workload: w, Values: make(map[string]float64)}
		if res := g.Results[w][SchemeEstNoShift]; res != nil {
			r.Values["without-shift"] = res.Stats.AvgCounterDiff()
		}
		if res := g.Results[w][SchemeEst]; res != nil {
			r.Values["with-shift"] = res.Stats.AvgCounterDiff()
		}
		out = append(out, r)
	}
	return out
}

// RelativeLifetime derives Section 6.4's lifetime comparison: lifetime
// under ideal wear leveling scales inversely with total write traffic
// (data + metadata maintenance).
func (g *Grid) RelativeLifetime() []Row {
	return g.rows(func(r *Result) float64 {
		total := float64(r.Stats.DataWrites + r.Stats.MetaWrites)
		if total == 0 {
			return 1
		}
		return float64(r.Stats.DataWrites) / total
	}, false)
}

// FNWCancellation derives the Section 6.1 datum: the fraction of FNW
// flip opportunities canceled by LADDER's ones constraint (reported <4%).
func (g *Grid) FNWCancellation() []Row {
	return g.rows(func(r *Result) float64 {
		if r.Stats.FNWUnits == 0 {
			return 0
		}
		return float64(r.Stats.FNWCanceled) / float64(r.Stats.FNWUnits)
	}, false)
}

// studyRows runs every workload under each variant in one runCells call
// and reduces each workload's results, in variant order, to its Row.
func studyRows(ctx context.Context, opts Options, variants []cell, reduce func(r []*Result) map[string]float64) ([]Row, error) {
	ws := opts.workloads()
	res, err := runCells(ctx, opts, crossCells(ws, variants))
	if err != nil {
		return nil, err
	}
	out := make([]Row, 0, len(ws))
	for i, w := range ws {
		out = append(out, Row{Workload: w, Values: reduce(res[i*len(variants) : (i+1)*len(variants)])})
	}
	return out, nil
}

// RangeAblation runs Section 7's process-variation study: it reports the
// fraction of a scheme's speedup retained when the timing tables' dynamic
// range shrinks by `factor` (the paper: 2× shrink retains ~85% on
// average).
func RangeAblation(ctx context.Context, opts Options, scheme string, factor float64) ([]Row, error) {
	shrink := func(c *Config) { c.ShrinkRange = factor }
	variants := []cell{{scheme: SchemeBaseline}, {scheme: scheme}, {scheme: SchemeBaseline, edit: shrink}, {scheme: scheme, edit: shrink}}
	return studyRows(ctx, opts, variants, func(r []*Result) map[string]float64 {
		gainFull := r[1].WeightedSpeedup(r[0]) - 1
		gainShr := r[3].WeightedSpeedup(r[2]) - 1
		retained := 0.0
		if gainFull > 0 {
			retained = gainShr / gainFull
		}
		return map[string]float64{"gain-full": gainFull, "gain-shrunk": gainShr, "retained": retained}
	})
}

// CrashRecoveryStudy runs Section 7's crash-consistency scenario: a power
// failure halfway through the run loses cached LRS-metadata, the lazy
// conservative correction overwrites the region with maximum values, and
// execution resumes. Reported per workload: average write service before
// and after the crash, and the post-crash counter gap (how conservative
// the corrected metadata still is on average).
func CrashRecoveryStudy(ctx context.Context, opts Options, scheme string) ([]Row, error) {
	crash := func(c *Config) {
		c.CrashAtInstr = c.InstrPerCore / 2
		if c.CrashAtInstr == 0 {
			c.CrashAtInstr = 100_000
		}
	}
	return studyRows(ctx, opts, []cell{{scheme: scheme, edit: crash}}, func(r []*Result) map[string]float64 {
		v := map[string]float64{}
		if pre, post := r[0].PreCrashStats, r[0].PostCrashStats; pre != nil && post != nil {
			v["pre-service-ns"] = pre.AvgWriteServiceNs()
			v["post-service-ns"] = post.AvgWriteServiceNs()
			v["post-counter-gap"] = post.AvgCounterDiff()
		}
		return v
	})
}

// VWLModeComparison contrasts segment-based and line-based vertical wear
// leveling under a LADDER scheme (Section 6.4's locality argument):
// line-granularity scatter breaks the page→metadata-line association, so
// metadata reads per data write rise and IPC falls.
func VWLModeComparison(ctx context.Context, opts Options, scheme string) ([]Row, error) {
	modes := []string{"segment", "line"}
	variants := make([]cell, len(modes))
	for i, mode := range modes {
		variants[i] = cell{scheme: scheme, edit: func(c *Config) { c.WearLeveling, c.VWLMode = true, mode }}
	}
	return studyRows(ctx, opts, variants, func(r []*Result) map[string]float64 {
		v := map[string]float64{}
		for i, mode := range modes {
			metaPerWrite := 0.0
			if r[i].Stats.DataWrites > 0 {
				metaPerWrite = float64(r[i].Stats.MetaReads) / float64(r[i].Stats.DataWrites)
			}
			v[mode+"-ipc"] = r[i].AvgIPC()
			v[mode+"-metareads"] = metaPerWrite
		}
		return v
	})
}

// CacheSizeSweep runs the metadata-cache ablation the paper mentions in
// Section 6.3 ("marginal system performance gain when increasing cache
// size (<2%)"): the scheme runs with a range of LRS-metadata cache sizes
// and reports IPC relative to the default 64 KB configuration.
func CacheSizeSweep(ctx context.Context, opts Options, scheme string, sizesKB []int) ([]Row, error) {
	if len(sizesKB) == 0 {
		sizesKB = []int{16, 32, 64, 128, 256}
	}
	variants := []cell{{scheme: scheme}}
	for _, kb := range sizesKB {
		variants = append(variants, cell{scheme: scheme, edit: func(c *Config) {
			c.MetaCache = core.MetaCacheConfig{SizeBytes: kb << 10, Ways: 4, SpillSize: 16}
		}})
	}
	return studyRows(ctx, opts, variants, func(r []*Result) map[string]float64 {
		v := map[string]float64{}
		for i, kb := range sizesKB {
			rel := 0.0
			if r[0].AvgIPC() > 0 {
				rel = r[i+1].AvgIPC() / r[0].AvgIPC()
			}
			v[fmt.Sprintf("%dKB", kb)] = rel
		}
		return v
	})
}

// LowPrecisionSweep ablates LADDER-Hybrid's precision control register:
// how many driver-near rows use 1-bit counters. 0 degenerates to
// LADDER-Est; MatRows makes everything low-precision. Reported: average
// write service time (ns) and metadata reads per data write.
func LowPrecisionSweep(ctx context.Context, opts Options, rows []int) ([]Row, error) {
	if len(rows) == 0 {
		rows = []int{0, 64, 128, 256, 512}
	}
	variants := make([]cell, len(rows))
	for i, n := range rows {
		variants[i] = cell{scheme: SchemeHybrid, edit: func(c *Config) {
			c.HybridLowRows = n
			if n == 0 {
				c.HybridLowRows = -1
			}
		}}
	}
	return studyRows(ctx, opts, variants, func(r []*Result) map[string]float64 {
		v := map[string]float64{}
		for i, n := range rows {
			v[fmt.Sprintf("rows=%d svc", n)] = r[i].Stats.AvgWriteServiceNs()
		}
		return v
	})
}

// ReliabilitySweep runs the write-fault reliability study: every
// workload runs under each scheme at each base fault rate (same fault
// seed), and the reported value is program-and-verify retries per 1000
// data writes, keyed "scheme@rate". The sweep exposes the stale-metadata
// margin effect: LADDER-Est's conservative partial-counter bounds
// program surplus latency margin, whose over-RESET stress draws more
// verify failures than LADDER-Basic's exact zero-margin counters (see
// docs/FAULTS.md). Nil schemes/rates select the defaults.
func ReliabilitySweep(ctx context.Context, opts Options, schemes []string, rates []float64) ([]Row, error) {
	if len(schemes) == 0 {
		schemes = []string{SchemeBasic, SchemeEst, SchemeHybrid}
	}
	if len(rates) == 0 {
		rates = []float64{0.001, 0.01}
	}
	var variants []cell
	var keys []string
	for _, s := range schemes {
		for _, rate := range rates {
			variants = append(variants, cell{scheme: s, edit: func(c *Config) { c.FaultRate = rate }})
			keys = append(keys, fmt.Sprintf("%s@%g", s, rate))
		}
	}
	return studyRows(ctx, opts, variants, func(r []*Result) map[string]float64 {
		v := map[string]float64{}
		for i, k := range keys {
			v[k] = 0
			if r[i].Faults != nil && r[i].Stats.DataWrites > 0 {
				v[k] = 1000 * float64(r[i].Faults.Retries) / float64(r[i].Stats.DataWrites)
			}
		}
		return v
	})
}

// LifetimeCell is one (gap-move period, spare-pool size) combination's
// outcome in a LifetimeSweep, averaged across the study's workloads.
type LifetimeCell struct {
	GapPeriod int `json:"gap_period"`
	SpareRows int `json:"spare_rows"`
	// RelativeLifetime is the modeled device lifetime relative to the
	// unleveled, spare-less baseline (see relativeLifetime).
	RelativeLifetime float64 `json:"relative_lifetime"`
	// IPCRatio is measured performance relative to the baseline run:
	// the cost side of the lifetime trade.
	IPCRatio float64 `json:"ipc_ratio"`
	// GapMoves and SpareRemaps total the decoder activity across the
	// cell's workload runs.
	GapMoves    uint64 `json:"gap_moves"`
	SpareRemaps uint64 `json:"spare_remaps"`
}

// LifetimeStudy is the lifetime-vs-overhead sweep over the programmable
// decoder's two sizing knobs: how often the start gap moves and how many
// spare rows each bank holds.
type LifetimeStudy struct {
	Scheme     string
	Workloads  []string
	GapPeriods []int
	SpareRows  []int
	// Cells are ordered gap-period-major, spare-pool-minor.
	Cells []LifetimeCell
	// Remap merges the decoder accounting of every leveled run in the
	// sweep.
	Remap remap.Stats
}

// relativeLifetime is the study's first-order endurance model over
// measured quantities. The simulator's vertical wear leveling is
// timing-only — store writes stay keyed by logical line — so leveling
// cannot be read off MaxRowWrites directly; instead the hottest row is
// interpolated toward the mean by the fraction of completed start-gap
// rotations:
//
//	rotations = gapMoves / (segments + 1)   // full map rotations
//	leveled   = rotations / (rotations + 1) // asymptotically → 1
//	effMax    = avgRow + (maxRow − avgRow)·(1 − leveled)
//
// Gap moves add maintenance write traffic (one segment copy per move,
// charged as one maintenance write here), and the spare pool adds raw
// row capacity the device fails over to, so the reported ratio is
//
//	(baseMax / effMax) / overhead · (1 + spares·banks/touchedRows)
//
// geom is the cells' geometry; segments count the decoder's start-gap
// rotation units over it.
func relativeLifetime(geom reram.Geometry, base, res *Result, spares int) float64 {
	touched := float64(res.TouchedRows)
	total := float64(res.TotalStoreWrites)
	if touched == 0 || total == 0 {
		return 1
	}
	segments := float64(geom.Rows()/vwlSegmentRows) + 1
	gapMoves := 0.0
	if res.Remap != nil {
		gapMoves = float64(res.Remap.GapMoves)
	}
	rotations := gapMoves / (segments + 1)
	leveled := rotations / (rotations + 1)
	avgRow := total / touched
	effMax := avgRow + (float64(res.MaxRowWrites)-avgRow)*(1-leveled)
	if effMax <= 0 {
		return 1
	}
	overhead := (total + gapMoves) / total
	spareFactor := 1 + float64(spares)*float64(geom.Banks())/touched
	return float64(base.MaxRowWrites) / effMax / overhead * spareFactor
}

// LifetimeSweep runs the lifetime study the decoder refactor enables:
// every workload runs once without leveling (the endurance baseline)
// and once per (gap period, spare pool) combination with segment VWL,
// spare remapping and proactive wear-limit retirement enabled — the
// limit auto-scaled to half the workload's observed hottest-row count so
// short runs still exercise the retirement path. Reported per cell:
// modeled relative lifetime and measured IPC ratio (the trade the paper
// prices at ~3% write overhead), averaged across workloads. Nil period
// and spare lists select the defaults; ValidateLifetimeAxes rejects a bad
// axis before any cell runs. The leveled runs depend on the baselines, so
// the study runs in two runCells stages.
func LifetimeSweep(ctx context.Context, opts Options, scheme string, periods, spares []int) (*LifetimeStudy, error) {
	if err := ValidateLifetimeAxes(periods, spares); err != nil {
		return nil, err
	}
	if len(periods) == 0 {
		periods = []int{64, 128, 256}
	}
	if len(spares) == 0 {
		spares = []int{0, 16, 32}
	}
	study := &LifetimeStudy{
		Scheme:     scheme,
		Workloads:  opts.workloads(),
		GapPeriods: periods,
		SpareRows:  spares,
	}
	geom := opts.Base.geometry()
	bases, err := runCells(ctx, opts, crossCells(study.Workloads, []cell{{scheme: scheme}}))
	if err != nil {
		return nil, err
	}
	var cells []cell
	for _, p := range periods {
		for _, sp := range spares {
			for i, w := range study.Workloads {
				limit := bases[i].MaxRowWrites/2 + 1
				cells = append(cells, cell{workload: w, scheme: scheme, edit: func(c *Config) {
					c.WearLeveling, c.VWLPeriod, c.ProactiveWearLimit = true, p, limit
					c.SpareRows = sp
					if sp == 0 {
						c.SpareRows = -1 // explicit "no spares", not the default pool
					}
				}})
			}
		}
	}
	res, err := runCells(ctx, opts, cells)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, p := range periods {
		for _, sp := range spares {
			cell := LifetimeCell{GapPeriod: p, SpareRows: sp}
			for _, base := range bases {
				r := res[k]
				k++
				var st remap.Stats
				if r.Remap != nil {
					st = *r.Remap
				}
				study.Remap.Merge(st)
				cell.GapMoves += st.GapMoves
				cell.SpareRemaps += st.SpareRemaps
				cell.RelativeLifetime += relativeLifetime(geom, base, r, sp)
				if base.AvgIPC() > 0 {
					cell.IPCRatio += r.AvgIPC() / base.AvgIPC()
				}
			}
			n := float64(len(bases))
			cell.RelativeLifetime /= n
			cell.IPCRatio /= n
			study.Cells = append(study.Cells, cell)
		}
	}
	return study, nil
}

// ValidateLifetimeAxes rejects LifetimeSweep axes whose cells would not
// measure what they are labeled with: a gap-move period below 1 (Config
// reads VWLPeriod 0 as the default period), a negative spare-pool size,
// or a value listed twice (its cells would share one row or column key).
func ValidateLifetimeAxes(periods, spares []int) error {
	check := func(axis string, vals []int, least int) error {
		for i, v := range vals {
			if v < least {
				return fmt.Errorf("sim: lifetime %s must be >= %d, got %d", axis, least, v)
			}
			if slices.Contains(vals[:i], v) {
				return fmt.Errorf("sim: lifetime %s %d is listed twice", axis, v)
			}
		}
		return nil
	}
	return errors.Join(check("gap period", periods, 1), check("spare-pool size", spares, 0))
}

// Series lists the sweep's printable column keys in cell order:
// "spares=N life" then "spares=N ipc" for each spare-pool size.
func (s *LifetimeStudy) Series() []string {
	out := make([]string, 0, 2*len(s.SpareRows))
	for _, sp := range s.SpareRows {
		out = append(out, fmt.Sprintf("spares=%d life", sp))
	}
	for _, sp := range s.SpareRows {
		out = append(out, fmt.Sprintf("spares=%d ipc", sp))
	}
	return out
}

// Rows renders the study for the experiment text printer: one row per
// gap period, columns per Series.
func (s *LifetimeStudy) Rows() []Row {
	out := make([]Row, 0, len(s.GapPeriods))
	for i, p := range s.GapPeriods {
		r := Row{Workload: fmt.Sprintf("gap=%d", p), Values: make(map[string]float64)}
		for j, sp := range s.SpareRows {
			c := s.Cells[i*len(s.SpareRows)+j]
			r.Values[fmt.Sprintf("spares=%d life", sp)] = c.RelativeLifetime
			r.Values[fmt.Sprintf("spares=%d ipc", sp)] = c.IPCRatio
		}
		out = append(out, r)
	}
	return out
}

// WearLevelingImpact runs Section 6.4's performance check: the IPC cost
// of enabling segment-based VWL under a LADDER scheme.
func WearLevelingImpact(ctx context.Context, opts Options, scheme string) ([]Row, error) {
	variants := []cell{{scheme: scheme}, {scheme: scheme, edit: func(c *Config) { c.WearLeveling = true }}}
	return studyRows(ctx, opts, variants, func(r []*Result) map[string]float64 {
		ratio := 0.0
		if r[0].AvgIPC() > 0 {
			ratio = r[1].AvgIPC() / r[0].AvgIPC()
		}
		return map[string]float64{"ipc-ratio": ratio, "gap-moves": float64(r[1].Remap.GapMoves)}
	})
}
