package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ladder/internal/sim"
	"ladder/internal/timing"
	"ladder/internal/trace"
)

// Instruction budgets per core. They size one 112-cell grid to well
// under a second on a two-CPU host, so a chunk runs the grid at least
// gridSeeds times, and more until its window is spent; the degraded
// cells do more work per instruction (verify/reissue, tracing,
// exports), so their budget is smaller.
const (
	gridInstr     = 40_000
	degradedInstr = 20_000
)

// gridSeeds is how many grids of distinct simulation seeds a chunk runs
// before it repeats one. Each chunk of a run (each pass) gets seeds of
// its own, so an untraced run pools cells of 3 × 6 seeds, and its cell
// times and hybrid_speedup do not rest on the quirks of a few traces.
// The pooled 2016 cells are well past the 100 that cell_ms_p90 needs.
const gridSeeds = 6

// gridSeed is the simulation seed of repetition rep in pass pass,
// derived from the benchmark seed. Repetitions past gridSeeds repeat the
// pass's earlier seeds, and their statistics must match exactly.
func gridSeed(seed int64, pass, rep int) int64 {
	return seed*1000 + int64(pass*gridSeeds+rep%gridSeeds)
}

// verifyReruns is how many cells each grid workload reruns with
// Config.Verify, outside the timed region.
const verifyReruns = 3

// cellStats are the simulated statistics that must repeat exactly for
// one seed.
type cellStats struct {
	ticks, instructions, storeWrites uint64
}

func statsOf(r *sim.Result) cellStats {
	return cellStats{r.Ticks, r.InstructionsRetired, r.TotalStoreWrites}
}

// gridCell names one (workload, scheme) pair.
type gridCell struct{ workload, scheme string }

func allCells() []gridCell {
	var cells []gridCell
	for _, w := range trace.AllWorkloads() {
		for _, s := range sim.FigureSchemes() {
			cells = append(cells, gridCell{w, s})
		}
	}
	return cells
}

// seededCell is one cell of one repetition's seed.
type seededCell struct {
	gridCell
	seed int64
}

// gridState is what the grid workloads keep across chunks.
type gridState struct {
	b      *bench
	first  map[seededCell]*sim.Result // each seed's first result per cell, statistics only
	counts layerCounts                // the first seed's cells, first time seen
}

func newGridState(b *bench) gridState {
	return gridState{b: b, first: map[seededCell]*sim.Result{}}
}

// observe folds one finished cell into a chunk and checks a repeated
// seed's simulated statistics against its first run.
func (g *gridState) observe(e *endToEnd, c seededCell, res *sim.Result, cellTime, jobTime time.Duration) {
	e.cellMs = append(e.cellMs, ms(cellTime))
	e.jobMs = append(e.jobMs, ms(jobTime))
	e.jobs++
	e.instructions += res.InstructionsRetired
	if prev, ok := g.first[c]; ok {
		g.b.check(statsOf(prev) == statsOf(res), "%s/%s: simulated statistics differ across repeats of seed %d: %+v vs %+v",
			c.workload, c.scheme, c.seed, statsOf(prev), statsOf(res))
		return
	}
	if c.seed == gridSeed(g.b.seed, 0, 0) {
		g.counts.add(res, cellTime)
	}
	// Keep only what the checks and the speedup read: a full result
	// holds its store, registry and span ring.
	g.first[c] = &sim.Result{Workload: res.Workload, Scheme: res.Scheme, PerCoreIPC: res.PerCoreIPC,
		Ticks: res.Ticks, InstructionsRetired: res.InstructionsRetired, TotalStoreWrites: res.TotalStoreWrites}
}

// speedup is the Figure 12 headline averaged over the seeds of the
// untraced run's measured chunks (passes 0 to setupRepeats-1).
func (g *gridState) speedup() float64 {
	var sum, n float64
	for i := 0; i < setupRepeats*gridSeeds; i++ {
		seed := gridSeed(g.b.seed, i/gridSeeds, i%gridSeeds)
		grid := &sim.Grid{Workloads: trace.AllWorkloads(), Schemes: sim.FigureSchemes(), Results: map[string]map[string]*sim.Result{}}
		for _, c := range allCells() {
			if grid.Results[c.workload] == nil {
				grid.Results[c.workload] = map[string]*sim.Result{}
			}
			grid.Results[c.workload][c.scheme] = g.first[seededCell{c, seed}]
		}
		sum += sim.Average(grid.Speedup()).Values[sim.SchemeHybrid]
		n++
	}
	return sum / n
}

// verifyCells reruns a few seed-chosen cells of the first seed, once as
// timed and once with Config.Verify (read-back of every written line
// through the device), and checks that both reruns' statistics match
// the timed run's. It runs outside the timed region.
func verifyCells(b *bench, cfgOf func(gridCell, int64) sim.Config, first map[seededCell]*sim.Result) {
	cells := allCells()
	rng := rand.New(rand.NewSource(b.seed))
	for i := 0; i < verifyReruns; i++ {
		c := seededCell{cells[rng.Intn(len(cells))], gridSeed(b.seed, 0, 0)}
		prev := first[c]
		b.check(prev != nil, "%s/%s: seed %d was never run", c.workload, c.scheme, c.seed)
		for _, verify := range []bool{false, true} {
			cfg := cfgOf(c.gridCell, c.seed)
			cfg.Verify = verify
			b.tally(1, 0)
			res, err := sim.Run(cfg)
			if err != nil {
				b.check(false, "%s/%s: rerun (verify %v): %v", c.workload, c.scheme, verify, err)
				continue
			}
			if prev != nil {
				b.check(statsOf(prev) == statsOf(res), "%s/%s: rerun (verify %v) statistics %+v differ from the timed run's %+v",
					c.workload, c.scheme, verify, statsOf(res), statsOf(prev))
			}
		}
	}
}

// paperGrid is the paper-grid workload: sim.RunGridCtx over all 16
// workloads × sim.FigureSchemes() with Jobs = 2, run as a closed batch
// over the pass's gridSeeds seeds and repeated until the window is spent.
type paperGrid struct {
	gridState
	opts sim.Options
}

func newPaperGrid(b *bench) workload { return &paperGrid{gridState: newGridState(b)} }

func (p *paperGrid) construct(ts *timing.TableSet) (func(), error) {
	p.opts = sim.Options{Instr: gridInstr, Tables: ts, Jobs: workers}
	return nil, nil
}

func (p *paperGrid) config(c gridCell, seed int64) sim.Config {
	return sim.Config{Workload: c.workload, Scheme: c.scheme, InstrPerCore: p.opts.Instr, Seed: seed, Tables: p.opts.Tables}
}

func (p *paperGrid) measure(ctx context.Context, window time.Duration, pass int) (endToEnd, error) {
	b := p.b
	cells := allCells()
	var e endToEnd
	start := time.Now()
	for rep := 0; rep < gridSeeds || time.Since(start) < window; rep++ {
		p.opts.Seed = gridSeed(b.seed, pass, rep)
		// Cells are timed by sim itself (Result.WallClock, build to
		// collect); the progress callback marks when each returned.
		finished := map[gridCell]time.Time{}
		p.opts.Progress = func(gp sim.GridProgress) { finished[gridCell{gp.Workload, gp.Scheme}] = time.Now() }
		gs := b.rec.begin("sim.grid", int64(rep), -1)
		t0 := time.Now()
		g, err := sim.RunGridCtx(ctx, p.opts, sim.FigureSchemes())
		e.wall += time.Since(t0)
		b.rec.end(gs)
		b.pace.burst()
		if err != nil {
			b.tally(len(cells), len(cells))
			return e, fmt.Errorf("grid of seed %d: %w", p.opts.Seed, err)
		}
		b.tally(len(cells), 0)
		for i, c := range cells {
			res := g.Results[c.workload][c.scheme]
			end := finished[c]
			b.rec.add("sim.cell", int64(rep*len(cells)+i), gs, end.Add(-res.WallClock), end)
			p.observe(&e, seededCell{c, p.opts.Seed}, res, res.WallClock, res.WallClock)
		}
	}
	return e, nil
}

func (p *paperGrid) finish(ctx context.Context) error {
	verifyCells(p.b, p.config, p.first)
	if p.b.traced() {
		p.counts.publish(p.b)
	}
	return nil
}

// degradedConfig is one degraded-traced cell: fault injection with
// program-and-verify, segment wear leveling with a short gap period,
// proactive wear-limit retirement, timeline sampling and transaction
// tracing of every request.
func degradedConfig(c gridCell, seed int64, ts *timing.TableSet, instr uint64) sim.Config {
	return sim.Config{
		Workload:           c.workload,
		Scheme:             c.scheme,
		InstrPerCore:       instr,
		Seed:               seed,
		Tables:             ts,
		FaultRate:          0.01,
		SpareRows:          256,
		WearLeveling:       true,
		VWLPeriod:          16,
		ProactiveWearLimit: 64,
		TimelineInterval:   100_000,
		TraceSample:        1,
		TraceCapacity:      4096,
	}
}

// cellExports are one cell's in-memory exports: bytes written and the
// host time each export took.
type cellExports struct {
	reportBytes, chromeBytes, csvBytes int
	run, chrome, csv                   time.Duration // run is sim.RunCtx itself
}

// export times one export call with a span around it.
func export(b *bench, name string, group int64, parent int, write func(*bytes.Buffer) error) (int, time.Duration, error) {
	var buf bytes.Buffer
	h := b.rec.begin(name, group, parent)
	start := time.Now()
	err := write(&buf)
	d := time.Since(start)
	b.rec.end(h)
	if err != nil {
		return 0, d, fmt.Errorf("%s: %w", name, err)
	}
	return buf.Len(), d, nil
}

// runDegradedCell runs one degraded cell and its three exports, with a
// span around each call, and checks that the timeline's per-epoch
// retries sum to the injector's total.
func runDegradedCell(ctx context.Context, b *bench, cfg sim.Config, group int64) (*sim.Result, cellExports, error) {
	var ex cellExports
	root := b.rec.begin("bench.cell", group, -1)
	defer b.rec.end(root)
	h := b.rec.begin("sim.run", group, root)
	start := time.Now()
	res, err := sim.RunCtx(ctx, cfg)
	ex.run = time.Since(start)
	b.rec.end(h)
	if err != nil {
		return nil, ex, err
	}
	if ex.reportBytes, _, err = export(b, "sim.report_json", group, root,
		func(w *bytes.Buffer) error { return sim.NewReport(res).WriteJSON(w) }); err != nil {
		return nil, ex, err
	}
	if ex.chromeBytes, ex.chrome, err = export(b, "tracing.chrome_export", group, root,
		func(w *bytes.Buffer) error { return res.Trace.WriteChromeTrace(w) }); err != nil {
		return nil, ex, err
	}
	if ex.csvBytes, ex.csv, err = export(b, "timeline.csv_export", group, root,
		func(w *bytes.Buffer) error { return res.Timeline.WriteCSV(w) }); err != nil {
		return nil, ex, err
	}
	var retries uint64
	for _, e := range res.Timeline.Epochs {
		retries += e.Retries
	}
	b.check(res.Faults != nil && retries == res.Faults.Retries,
		"%s/%s: timeline epoch retries sum to %d, Faults.Retries is %v", cfg.Workload, cfg.Scheme, retries, res.Faults)
	return res, ex, nil
}

// exportTimes collects export durations in ms across cells.
type exportTimes struct{ chrome, csv []float64 }

func (e *exportTimes) add(ex cellExports) {
	e.chrome = append(e.chrome, ms(ex.chrome))
	e.csv = append(e.csv, ms(ex.csv))
}

func (e *exportTimes) publish(b *bench) {
	b.set("tracing.chrome_export_ms", median(e.chrome), "ms")
	b.set("timeline.export_ms", median(e.csv), "ms")
}

// degraded is the degraded-traced workload: the paper grid's 112
// cells, each through sim.RunCtx on a two-worker pool with the fault,
// remap, wear, timeline and tracing layers on and every cell's report,
// Chrome trace and timeline CSV written to memory.
type degraded struct {
	gridState
	ts    *timing.TableSet
	times exportTimes // the latest chunk's
}

func newDegraded(b *bench) workload { return &degraded{gridState: newGridState(b)} }

func (d *degraded) construct(ts *timing.TableSet) (func(), error) {
	d.ts = ts
	return nil, nil
}

func (d *degraded) config(c gridCell, seed int64) sim.Config {
	return degradedConfig(c, seed, d.ts, degradedInstr)
}

func (d *degraded) measure(ctx context.Context, window time.Duration, pass int) (endToEnd, error) {
	b := d.b
	cells := allCells()
	var (
		e      endToEnd
		mu     sync.Mutex // guards e, d.gridState, d.times, bytes, runErr
		runErr error
		bytes  cellExports
	)
	d.times = exportTimes{}
	start := time.Now()
	for rep := 0; rep < gridSeeds || time.Since(start) < window; rep++ {
		seed := gridSeed(b.seed, pass, rep)
		work := make(chan int)
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					c := cells[i]
					t := time.Now()
					res, ex, err := runDegradedCell(ctx, b, d.config(c, seed), int64(rep*len(cells)+i))
					job := time.Since(t)
					mu.Lock()
					if err != nil {
						b.tally(1, 1)
						runErr = fmt.Errorf("%s/%s: %w", c.workload, c.scheme, err)
					} else {
						b.tally(1, 0)
						d.observe(&e, seededCell{c, seed}, res, ex.run, job)
						d.times.add(ex)
						bytes.reportBytes += ex.reportBytes
						bytes.chromeBytes += ex.chromeBytes
						bytes.csvBytes += ex.csvBytes
					}
					mu.Unlock()
				}
			}()
		}
		for i := range cells {
			work <- i
		}
		close(work)
		wg.Wait()
		e.wall += time.Since(t0)
		b.pace.burst()
		if runErr != nil {
			return e, runErr
		}
	}
	fmt.Fprintf(b.out, "# exported bytes: report=%d chrome=%d timeline_csv=%d\n",
		bytes.reportBytes, bytes.chromeBytes, bytes.csvBytes)
	return e, nil
}

func (d *degraded) finish(ctx context.Context) error {
	verifyCells(d.b, d.config, d.first)
	if d.b.traced() {
		d.counts.publish(d.b)
		d.times.publish(d.b)
	}
	return nil
}

// probeExports times the three exports on a few small degraded cells,
// for the traced run of a workload that does not export.
func probeExports(ctx context.Context, b *bench) error {
	var times exportTimes
	for i, w := range []string{"lbm", "mcf", "astar"} {
		_, ex, err := runDegradedCell(ctx, b, degradedConfig(gridCell{w, sim.SchemeHybrid}, b.seed, b.tables, 20_000), int64(i))
		if err != nil {
			return fmt.Errorf("export probe: %w", err)
		}
		times.add(ex)
	}
	times.publish(b)
	return nil
}
