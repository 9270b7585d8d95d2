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
	"ladder/internal/timing"
	"ladder/internal/trace"
)

// Options scopes an experiment run.
type Options struct {
	// Instr is the per-core instruction budget (0 = DefaultInstr).
	Instr uint64
	// Seed makes the experiment deterministic.
	Seed int64
	// Tables overrides the timing tables (nil = full 512×512 set).
	Tables *timing.TableSet
	// Workloads restricts the workload list (nil = all sixteen); a
	// workload listed twice is rejected, as a grid keys its results by
	// workload.
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

// GridProgress reports one finished cell of a running grid or study.
// Done and Total count the cells of one RunCells call, so a study that
// runs in stages (the lifetime sweep) counts each stage from zero.
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

// WorkloadNames is the workload list a grid or study runs: Workloads,
// or all sixteen when it names none.
func (o Options) WorkloadNames() []string {
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
// repeated workload, a Base that sets a field the grid sets per cell, or
// a Base knob outside its range (see Config). Every grid and study calls
// it before any cell runs; a front end may call it earlier to fail
// before any output.
func (o Options) Validate() error {
	if o.Jobs < 0 {
		return fmt.Errorf("sim: Options.Jobs must be >= 0 (0 = one worker per CPU), got %d", o.Jobs)
	}
	for i, w := range o.Workloads {
		if slices.Contains(o.Workloads[:i], w) {
			return fmt.Errorf("sim: Options.Workloads lists %q twice", w)
		}
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

// RunGridCtx is RunGrid under a context, with RunCells' cancellation,
// failure, panic-isolation and determinism guarantees: a canceled or
// failed grid is returned as an error, never as a silently partial
// result.
//
// Scheme names resolve as Config.Scheme does (core.SchemeName), and the
// Grid is keyed by the registered spellings, so the normalized views
// find SchemeBaseline however the caller spelled it. An unknown name,
// or two names of one scheme, fails the grid before any cell runs.
func RunGridCtx(ctx context.Context, opts Options, schemes []string) (*Grid, error) {
	ws := opts.WorkloadNames()
	schemes, err := CanonicalSchemes(schemes)
	if err != nil {
		return nil, err
	}
	variants := make([]Cell, len(schemes))
	for i, s := range schemes {
		variants[i].Scheme = s
	}
	res, err := RunCells(ctx, opts, CrossCells(ws, variants))
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

// CanonicalSchemes resolves each name to its registered spelling,
// rejecting unknown names and repeats of one scheme: the scheme-list
// check RunGridCtx and the service's request validation share.
func CanonicalSchemes(names []string) ([]string, error) {
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

// Cell is one simulation of a grid or study: a workload under a scheme,
// with an optional edit of the Config that Options derives for it.
type Cell struct {
	Workload, Scheme string
	Edit             func(*Config)
}

// CrossCells lays out every workload under every variant (a cell whose
// workload is ignored), workload-major: cell i*len(variants)+j is
// workload i under variant j.
func CrossCells(workloads []string, variants []Cell) []Cell {
	cells := make([]Cell, 0, len(workloads)*len(variants))
	for _, w := range workloads {
		for _, v := range variants {
			v.Workload = w
			cells = append(cells, v)
		}
	}
	return cells
}

// RunCells is the one way experiments simulate: it runs cells on a
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
func RunCells(ctx context.Context, opts Options, cells []Cell) ([]*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	cfgs := make([]Config, len(cells))
	var layoutErrs []error
	for i, c := range cells {
		cfg := opts.config(c.Workload, c.Scheme)
		if c.Edit != nil {
			c.Edit(&cfg)
		}
		cfgs[i] = cfg
		if _, err := coreStreams(&cfg); err != nil {
			layoutErrs = append(layoutErrs, fmt.Errorf("running %s/%s: %w", c.Workload, c.Scheme, err))
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
				runErrs = append(runErrs, fmt.Errorf("running %s/%s: %w", c.Workload, c.Scheme, err))
				cancel()
			}
			mu.Unlock()
			if opts.Progress != nil {
				progressMu.Lock()
				opts.Progress(GridProgress{Done: n, Total: len(cells), Workload: c.Workload, Scheme: c.Scheme, Failed: err != nil})
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

// RelativeLifetime derives Section 6.4's lifetime comparison: each
// scheme's lifetime under ideal wear leveling (core.Stats.LeveledLifetime).
func (g *Grid) RelativeLifetime() []Row {
	return g.rows(func(r *Result) float64 { return r.Stats.LeveledLifetime() }, false)
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
