package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"ladder/internal/bits"
	"ladder/internal/circuit"
	"ladder/internal/core"
	"ladder/internal/energy"
	"ladder/internal/fault"
	"ladder/internal/memctrl"
	"ladder/internal/metrics"
	"ladder/internal/remap"
	"ladder/internal/reram"
	"ladder/internal/sim"
	"ladder/internal/timing"
	"ladder/internal/trace"
)

// layerCounts sums the work each layer did over a workload's first
// repetition (simulated counts repeat exactly for a seed).
type layerCounts struct {
	cellHost                          time.Duration
	ticks, storeWrites, touchedRows   uint64
	dataWrites, metaReads, metaWrites uint64
	cacheHits, cacheMisses            uint64
	faultChecked, faultRetries        uint64
	gapMoves, spareRemaps, lookups    uint64
	epochs, traceSpans                uint64
}

func (c *layerCounts) add(r *sim.Result, host time.Duration) {
	c.cellHost += host
	c.ticks += r.Ticks
	c.storeWrites += r.TotalStoreWrites
	c.touchedRows += uint64(r.TouchedRows)
	c.dataWrites += r.Stats.DataWrites
	c.metaReads += r.Stats.MetaReads
	c.metaWrites += r.Stats.MetaWrites
	c.cacheHits += r.Stats.MetaCacheHits
	c.cacheMisses += r.Stats.MetaCacheMisses
	if r.Faults != nil {
		c.faultChecked += r.Faults.Checked
		c.faultRetries += r.Faults.Retries
	}
	if r.Remap != nil {
		c.gapMoves += r.Remap.GapMoves
		c.spareRemaps += r.Remap.SpareRemaps
		c.lookups += r.Remap.Lookups
	}
	if r.Timeline != nil {
		c.epochs += uint64(len(r.Timeline.Epochs))
	}
	if r.Trace != nil {
		c.traceSpans += r.Trace.Sampled()
	}
}

// publish sets the per-layer count metrics.
func (c *layerCounts) publish(b *bench) {
	b.set("sim.ticks", float64(c.ticks), "count")
	b.set("sim.ns_per_tick", ratio(float64(c.cellHost), float64(c.ticks)), "ns")
	b.set("reram.store_writes", float64(c.storeWrites), "count")
	b.set("reram.touched_rows", float64(c.touchedRows), "count")
	b.set("core.data_writes", float64(c.dataWrites), "count")
	b.set("core.meta_reads", float64(c.metaReads), "count")
	b.set("core.meta_writes", float64(c.metaWrites), "count")
	b.set("core.meta_cache.hit_ratio", ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses)), "ratio")
	b.set("core.meta_cache.lookups", float64(c.cacheHits+c.cacheMisses), "count")
	b.set("fault.checked", float64(c.faultChecked), "count")
	b.set("fault.retries", float64(c.faultRetries), "count")
	b.set("fault.retries_per_kwrite", 1000*ratio(float64(c.faultRetries), float64(c.dataWrites)), "1/kwrite")
	b.set("remap.gap_moves", float64(c.gapMoves), "count")
	b.set("remap.spare_remaps", float64(c.spareRemaps), "count")
	b.set("remap.lookups", float64(c.lookups), "count")
	b.set("timeline.epochs", float64(c.epochs), "count")
	b.set("tracing.spans", float64(c.traceSpans), "count")
}

// has reports whether the workload already measured a metric.
func (b *bench) has(name string) bool {
	_, ok := b.metrics[name]
	return ok
}

// nsPer times n calls of f and returns the mean host ns per call.
func nsPer(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// medianMs returns the median host ms of reps calls of f.
func medianMs(reps int, f func() error) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(start)))
	}
	return median(xs), nil
}

// probeSink keeps probe results live so the compiler cannot drop the
// calls being timed.
var probeSink float64

// runProbes times each layer's public entry points on small fixed
// inputs derived from the seed. It runs only in the traced run, after
// the workload, so it never perturbs the end-to-end numbers. A metric
// the workload measured itself (export times on degraded-traced, job
// phases on service-jobs) keeps the workload's value; on the other
// workloads a small session of that workload supplies it.
func runProbes(ctx context.Context, b *bench) error {
	// Probe calls are not part of the workload, so they record no spans.
	rec := b.rec
	b.rec = nil
	defer func() { b.rec = rec }()
	start := time.Now()
	rng := rand.New(rand.NewSource(b.seed))
	if err := probeSolve(b); err != nil {
		return err
	}
	writes, err := probeTrace(b)
	if err != nil {
		return err
	}
	if err := probeStore(b, writes); err != nil {
		return err
	}
	probeLookup(b, rng)
	if err := probeMetaCache(b, rng); err != nil {
		return err
	}
	if err := probeController(b); err != nil {
		return err
	}
	res, err := probeSim(b)
	if err != nil {
		return err
	}
	if err := probeFaultRemap(b, rng); err != nil {
		return err
	}
	if err := probeMetrics(b, res); err != nil {
		return err
	}
	if !b.has("tracing.chrome_export_ms") {
		if err := probeExports(ctx, b); err != nil {
			return err
		}
	}
	if !b.has("service.submit_ms_p50") {
		if err := probeService(ctx, b); err != nil {
			return err
		}
	}
	fmt.Fprintf(b.out, "# probes took %.2fs\n", time.Since(start).Seconds())
	return nil
}

// probeSolve times circuit.FastModel.Solve over the table-corner op set:
// the eight (wordline, bitline, content) bucket corners Generate visits,
// three times over.
func probeSolve(b *bench) error {
	p := circuit.DefaultParams()
	f, err := circuit.NewFastModel(p)
	if err != nil {
		return err
	}
	gran := p.N / timing.Buckets
	sel := p.SelectedCells
	var ops []circuit.FastOp
	for _, wb := range []int{0, timing.Buckets - 1} {
		for _, bb := range []int{0, timing.Buckets - 1} {
			for _, cb := range []int{0, timing.Buckets - 1} {
				cols := make([]int, sel)
				for i := range cols {
					cols[i] = (bb+1)*gran - sel + i
				}
				ops = append(ops, circuit.FastOp{Row: (wb+1)*gran - 1, Cols: cols,
					WLLRS: min((cb+1)*gran-1, p.N-sel), BLLRS: p.N - 1})
			}
		}
	}
	var xs []float64
	for rep := 0; rep < 3; rep++ {
		for _, op := range ops {
			start := time.Now()
			r, err := f.Solve(op)
			if err != nil {
				return fmt.Errorf("solve probe: %w", err)
			}
			xs = append(xs, ms(time.Since(start)))
			probeSink += r.MinVd
		}
	}
	v, err := percentile(xs, 0.5)
	if err != nil {
		return err
	}
	b.set("circuit.solve_ms_p50", v, "ms")
	return nil
}

// streamWrite is one generated writeback.
type streamWrite struct {
	line uint64
	data bits.Line
}

// probeAccesses is how many accesses each profile's generator produces.
const probeAccesses = 5000

// probeTrace times trace.Generator.Next over every profile of the 16
// workloads and returns the writes of the stream for the store probe.
func probeTrace(b *bench) ([]streamWrite, error) {
	geom := reram.DefaultGeometry()
	region := geom.Lines() / reram.BlocksPerRow / 2
	var gens []*trace.Generator
	for i, w := range trace.AllWorkloads() {
		profiles, err := trace.MixProfiles(w)
		if err != nil {
			return nil, err
		}
		for j, p := range profiles {
			if uint64(p.WorkingSetPages) > region {
				p.WorkingSetPages = int(region)
			}
			g, err := trace.NewGenerator(p, b.seed+int64(i*4+j), 0)
			if err != nil {
				return nil, err
			}
			gens = append(gens, g)
		}
	}
	var writes []streamWrite
	start := time.Now()
	for _, g := range gens {
		for k := 0; k < probeAccesses; k++ {
			if a := g.Next(); a.Write {
				writes = append(writes, streamWrite{a.Line, a.Data})
			}
		}
	}
	b.set("trace.next_ns", float64(time.Since(start))/float64(len(gens)*probeAccesses), "ns")
	return writes, nil
}

// probeStore times reram.Store.Write on the generated write stream, on
// a store with the simulator's default resident data.
func probeStore(b *bench, writes []streamWrite) error {
	store, err := reram.NewStore(reram.DefaultGeometry())
	if err != nil {
		return err
	}
	store.SetResident(2, uint64(b.seed))
	var firstErr error
	v := nsPer(len(writes), func(i int) {
		if _, err := store.Write(writes[i].line, writes[i].data); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		return fmt.Errorf("store probe: %w", firstErr)
	}
	b.set("reram.write_ns", v, "ns")
	return nil
}

// probeLookup times timing.Table.Lookup at random operating points.
func probeLookup(b *bench, rng *rand.Rand) {
	const n = 1 << 21
	args := make([][3]int, 4096)
	for i := range args {
		args[i] = [3]int{rng.Intn(512), rng.Intn(512), rng.Intn(512)}
	}
	wl := b.tables.WL
	v := nsPer(n, func(i int) {
		a := args[i&4095]
		probeSink += wl.Lookup(a[0], a[1], a[2])
	})
	b.set("timing.lookup_ns", v, "ns")
}

// probeMetaCache times core.MetaCache.Lookup over keys half of which
// the cache holds.
func probeMetaCache(b *bench, rng *rand.Rand) error {
	cache, err := core.NewMetaCache(core.DefaultMetaCacheConfig())
	if err != nil {
		return err
	}
	const held = 1024
	for k := uint64(0); k < held; k++ {
		if _, ok := cache.Reserve(k, reram.Location{}); !ok {
			return fmt.Errorf("metacache probe: reserve %d refused", k)
		}
		cache.Fill(k)
		cache.Release(k)
	}
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = uint64(rng.Intn(2 * held))
	}
	hits := 0
	v := nsPer(1<<20, func(i int) {
		if present, _ := cache.Lookup(keys[i&4095]); present {
			hits++
		}
	})
	probeSink += float64(hits)
	b.set("core.metacache_lookup_ns", v, "ns")
	return nil
}

// probeController times memctrl.Controller.Tick on a standalone
// controller with a real LADDER-Hybrid scheme, fed lbm's access stream
// as fast as its queues accept it.
func probeController(b *bench) error {
	geom := reram.DefaultGeometry()
	store, err := reram.NewStore(geom)
	if err != nil {
		return err
	}
	store.SetResident(2, uint64(b.seed))
	env := &core.Env{Geom: geom, Store: store, Tables: b.tables, Stats: &core.Stats{}, Metrics: metrics.NewRegistry()}
	scheme, err := core.NewScheme(sim.SchemeHybrid, env, core.DefaultMetaCacheConfig())
	if err != nil {
		return err
	}
	meter, err := energy.NewMeter(energy.DefaultParams())
	if err != nil {
		return err
	}
	ctrl, err := memctrl.NewController(memctrl.DefaultConfig(), env, scheme, meter, func(*memctrl.ReadReq, uint64) {})
	if err != nil {
		return err
	}
	prof, err := trace.Lookup("lbm")
	if err != nil {
		return err
	}
	gen, err := trace.NewGenerator(prof, b.seed, 0)
	if err != nil {
		return err
	}
	const ticks = 1 << 20
	next := gen.Next()
	v := nsPer(ticks, func(now int) {
		t := uint64(now)
		accepted := false
		if next.Write {
			accepted = ctrl.EnqueueWrite(next.Line, next.Data, t)
		} else {
			accepted = ctrl.EnqueueRead(0, next.Line, t)
		}
		if accepted {
			next = gen.Next()
		}
		ctrl.Tick(t)
	})
	if err := ctrl.Err(); err != nil {
		return fmt.Errorf("controller probe: %w", err)
	}
	b.set("memctrl.tick_ns", v, "ns")
	return nil
}

// probeSim times sim.Run with a tiny budget, which is mostly build and
// collect, and the report encoding of its result.
func probeSim(b *bench) (*sim.Result, error) {
	cfg := sim.Config{Workload: "lbm", Scheme: sim.SchemeHybrid, InstrPerCore: 2000, Seed: b.seed, Tables: b.tables}
	var res *sim.Result
	v, err := medianMs(9, func() (err error) {
		res, err = sim.Run(cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("sim probe: %w", err)
	}
	b.set("sim.run_fixed_ms", v, "ms")
	var buf bytes.Buffer
	v, err = medianMs(9, func() error {
		buf.Reset()
		return sim.NewReport(res).WriteJSON(&buf)
	})
	if err != nil {
		return nil, err
	}
	b.set("sim.report_ms", v, "ms")
	return res, nil
}

// probeFaultRemap times fault.Injector.CheckWrite and
// remap.Decoder.Resolve at random operating points.
func probeFaultRemap(b *bench, rng *rand.Rand) error {
	inj, err := fault.NewInjector(fault.Config{Rate: 0.01, Seed: b.seed, RetryMax: fault.UseDefault})
	if err != nil {
		return err
	}
	lat := make([]float64, 4096)
	for i := range lat {
		lat[i] = timing.MinLatencyNs + rng.Float64()*(timing.MaxLatencyNs-timing.MinLatencyNs)
	}
	v := nsPer(1<<20, func(i int) {
		probeSink += float64(inj.CheckWrite(lat[i&4095], lat[(i+1)&4095], uint64(i)))
	})
	b.set("fault.check_ns", v, "ns")

	geom := reram.DefaultGeometry()
	dec, err := remap.NewDecoder(remap.Config{Geom: geom, TicksPerNs: memctrl.TicksPerNs,
		GapSegmentRows: 256, GapPeriod: 16, SpareRows: remap.UseDefault, PenaltyNs: remap.UseDefault})
	if err != nil {
		return err
	}
	locs := make([]reram.Location, 4096)
	for i := range locs {
		if locs[i], err = geom.Decode(uint64(rng.Int63n(int64(geom.Lines())))); err != nil {
			return err
		}
	}
	for i := 0; i < 16; i++ {
		if err := dec.RemapSpare(locs[i].Rank*geom.BanksPerRank+locs[i].Bank, geom.GlobalRow(locs[i]), 0); err != nil {
			return err
		}
	}
	v = nsPer(1<<20, func(i int) {
		loc, pen := dec.Resolve(locs[i&4095])
		probeSink += float64(loc.WL) + float64(pen)
	})
	b.set("remap.resolve_ns", v, "ns")
	return nil
}

// probeMetrics times a registry snapshot and its Prometheus encoding on
// a real run's registry.
func probeMetrics(b *bench, res *sim.Result) error {
	var snap metrics.Snapshot
	v, err := medianMs(21, func() error {
		snap = res.Metrics.Snapshot()
		return nil
	})
	if err != nil {
		return err
	}
	b.set("metrics.snapshot_us", 1000*v, "us")
	var buf bytes.Buffer
	v, err = medianMs(21, func() error {
		buf.Reset()
		return metrics.WritePrometheus(&buf, snap, nil)
	})
	if err != nil {
		return err
	}
	b.set("metrics.prom_ms", v, "ms")
	return nil
}
