package memctrl

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ladder/internal/bits"
	"ladder/internal/core"
	"ladder/internal/energy"
	"ladder/internal/fault"
	"ladder/internal/remap"
)

// twin is one of two identically built controllers: its own env, store,
// registry, scheme, fault injector and wear-leveling decoder, all seeded
// alike.
type twin struct {
	env   *core.Env
	ctrl  *Controller
	meter *energy.Meter
	dec   *remap.Decoder
	// reads records every delivered demand read as (core, line, cycle).
	reads [][3]uint64
}

func newTwin(t *testing.T, mk func(*core.Env) (core.Scheme, error)) *twin {
	t.Helper()
	env := testEnv(t)
	meter, err := energy.NewMeter(energy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := mk(env)
	if err != nil {
		t.Fatal(err)
	}
	tw := &twin{env: env, meter: meter}
	tw.ctrl, err = NewController(DefaultConfig(), env, scheme, meter, func(r *ReadReq, now uint64) {
		tw.reads = append(tw.reads, [3]uint64{uint64(r.Core), r.Line, now})
	})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(fault.Config{Rate: 0.05, Seed: 9, RetryMax: fault.UseDefault})
	if err != nil {
		t.Fatal(err)
	}
	tw.dec, err = remap.NewDecoder(remap.Config{
		Geom:           env.Geom,
		TicksPerNs:     TicksPerNs,
		GapSegmentRows: 16,
		GapPeriod:      8,
		SpareRows:      64,
		PenaltyNs:      -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Instrument(env.Metrics)
	tw.dec.Instrument(env.Metrics)
	tw.ctrl.SetFaults(inj)
	tw.ctrl.SetDecoder(tw.dec)
	tw.ctrl.Instrument(0)
	return tw
}

// write offers one processor writeback the way sim.System does: a
// decoder write that completes a gap period also queues the segment
// migration as a maintenance write.
func (tw *twin) write(line uint64, data bits.Line, now uint64) bool {
	if !tw.ctrl.EnqueueWrite(line, data, now) {
		return false
	}
	if tw.dec.RecordWrite() {
		loc, _ := tw.env.Geom.Decode(line)
		tw.ctrl.EnqueueMaintenance(loc, now)
	}
	return true
}

// twinSchemes builds each LADDER scheme over a metadata cache of the
// given configuration, in a fixed order.
var twinSchemes = []struct {
	name string
	mk   func(*core.Env, core.MetaCacheConfig) (core.Scheme, error)
}{
	{"basic", func(env *core.Env, cc core.MetaCacheConfig) (core.Scheme, error) { return core.NewBasicCache(env, cc) }},
	{"est", func(env *core.Env, cc core.MetaCacheConfig) (core.Scheme, error) {
		return core.NewEstCache(env, true, cc)
	}},
	{"hybrid", func(env *core.Env, cc core.MetaCacheConfig) (core.Scheme, error) { return core.NewHybridCache(env, cc) }},
}

// recycledTwin builds a twin on the storage of a controller of another
// scheme, with the paper's cache, recycled in flight: its queues hold requests,
// its banks are busy and its cache holds valid and filling lines.
func recycledTwin(t *testing.T, mk, donorMk func(*core.Env) (core.Scheme, error)) *twin {
	t.Helper()
	donor := newTwin(t, donorMk)
	rng := rand.New(rand.NewSource(5))
	lines := donor.env.Geom.Lines()
	for now := uint64(0); now < 3000; now++ {
		var data bits.Line
		rng.Read(data[:])
		donor.write(uint64(rng.Int63n(int64(lines))), data, now)
		donor.ctrl.EnqueueRead(1, uint64(rng.Int63n(int64(lines))), now)
		donor.ctrl.Tick(now)
	}
	if donor.ctrl.Idle() {
		t.Fatal("the donor controller is idle: nothing in flight to recycle")
	}
	donor.ctrl.scheme.(interface{ Cache() *core.MetaCache }).Cache().Recycle()
	mem := donor.ctrl.takeStorage()
	tw := newTwin(t, mk)
	tw.ctrl.adopt(mem)
	return tw
}

// TestDormantTicksMatchFullTicks builds twin controllers and feeds both
// the same random reads, writes and maintenance writes, in bursts that
// drive the write queue past the drain watermark and in sparse stretches
// that leave the controller dormant between completions. Writes span
// the whole memory, so the metadata cache evicts and writes back, and a
// 5% fault rate forces verify reissues. Before every tick the reference
// twin's quiet flag is cleared, so it always runs the full tick; the
// other twin takes the dormant shortcut, on storage a controller of
// another scheme and cache size recycled mid-run. The two must agree on
// every Tick return, every NextEventAt, the queue lengths and the mode
// on every processed cycle, and on every count, delivered read and
// energy total at the end. Every LADDER scheme runs with 2, 4, 8 and
// 16 KB 4-way metadata caches and Basic also with the paper's 64 KB,
// each small enough to evict dirty metadata, except that Hybrid's 1-bit
// counters seldom dirty a line and its 16 KB cache writes none back
// under this traffic.
func TestDormantTicksMatchFullTicks(t *testing.T) {
	for i, sc := range twinSchemes {
		donor := twinSchemes[(i+1)%len(twinSchemes)]
		donorMk := func(env *core.Env) (core.Scheme, error) { return donor.mk(env, core.DefaultMetaCacheConfig()) }
		sizes := []int{2, 4, 8, 16}
		if sc.name == "basic" {
			sizes = append(sizes, 64) // the paper's cache, as Basic ran before
		}
		t.Run(sc.name, func(t *testing.T) {
			for _, kb := range sizes {
				cc := core.MetaCacheConfig{SizeBytes: kb << 10, Ways: 4, SpillSize: 16}
				mk := func(env *core.Env) (core.Scheme, error) { return sc.mk(env, cc) }
				t.Run(fmt.Sprintf("%dKB", kb), func(t *testing.T) {
					writebacks := sc.name != "hybrid" || kb < 16
					testDormantTicks(t, newTwin(t, mk), recycledTwin(t, mk, donorMk), writebacks)
				})
			}
		})
	}
}

// testDormantTicks drives the reference twin ref with full ticks and
// fast with dormant ones, as TestDormantTicksMatchFullTicks describes,
// requiring metadata writebacks when writebacks is set.
func testDormantTicks(t *testing.T, ref, fast *twin, writebacks bool) {
	rng := rand.New(rand.NewSource(77))
	lines := ref.env.Geom.Lines()
	var now uint64
	ticks, skipped := 0, 0
	tick := func() {
		ticks++
		if fast.ctrl.quiet && now < fast.ctrl.nextFinish {
			skipped++
		}
		ref.ctrl.quiet = false
		ra, fa := ref.ctrl.Tick(now), fast.ctrl.Tick(now)
		rn, fn := ref.ctrl.NextEventAt(now), fast.ctrl.NextEventAt(now)
		switch {
		case ra != fa:
			t.Fatalf("cycle %d: Tick = %v, full tick = %v", now, fa, ra)
		case rn != fn:
			t.Fatalf("cycle %d: NextEventAt = %d, full tick's = %d", now, fn, rn)
		case ref.ctrl.ReadQueueLen() != fast.ctrl.ReadQueueLen(),
			ref.ctrl.WriteQueueLen() != fast.ctrl.WriteQueueLen():
			t.Fatalf("cycle %d: queues rdq=%d wrq=%d, full tick's rdq=%d wrq=%d", now,
				fast.ctrl.ReadQueueLen(), fast.ctrl.WriteQueueLen(),
				ref.ctrl.ReadQueueLen(), ref.ctrl.WriteQueueLen())
		case ref.ctrl.InWriteMode() != fast.ctrl.InWriteMode():
			t.Fatalf("cycle %d: write mode %v, full tick's %v", now, fast.ctrl.InWriteMode(), ref.ctrl.InWriteMode())
		case ref.ctrl.Idle() != fast.ctrl.Idle():
			t.Fatalf("cycle %d: idle %v, full tick's %v", now, fast.ctrl.Idle(), ref.ctrl.Idle())
		}
		if err := ref.ctrl.Err(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
	}
	for step := 0; step < 60_000; step++ {
		// Alternate 2000-cycle bursts, which fill the write
		// queue, with sparse stretches of rare enqueues.
		burst := (step/2000)%2 == 0
		p := 200
		if burst {
			p = 3
		}
		if rng.Intn(p) == 0 {
			line := uint64(rng.Int63n(int64(lines)))
			var data bits.Line
			rng.Read(data[:])
			if ref.write(line, data, now) != fast.write(line, data, now) {
				t.Fatalf("cycle %d: twins disagree on accepting a write", now)
			}
		}
		if rng.Intn(p) == 0 {
			line := uint64(rng.Int63n(int64(lines)))
			if ref.ctrl.EnqueueRead(1, line, now) != fast.ctrl.EnqueueRead(1, line, now) {
				t.Fatalf("cycle %d: twins disagree on accepting a read", now)
			}
		}
		if rng.Intn(4*p) == 0 {
			// A maintenance write on its own, not behind a write.
			loc, _ := ref.env.Geom.Decode(uint64(rng.Int63n(int64(lines))))
			ref.ctrl.EnqueueMaintenance(loc, now)
			fast.ctrl.EnqueueMaintenance(loc, now)
		}
		tick()
		// Mostly process the next cycle; sometimes skip ahead
		// the way the engine does, to a cycle no later than the
		// controller's own next event.
		next := now + 1
		if !burst && rng.Intn(4) == 0 {
			if n := ref.ctrl.NextEventAt(now); n != ^uint64(0) && n > next {
				next += uint64(rng.Int63n(int64(n - now)))
			}
		}
		now = next
	}
	for i := 0; !ref.ctrl.Idle(); i++ {
		if i > 50_000_000 {
			t.Fatal("twins did not drain")
		}
		tick()
		now++
	}
	if skipped == 0 {
		t.Fatal("no tick took the dormant shortcut")
	}
	if st := fault.StatsFrom(ref.env.Metrics.Snapshot()); st.Retries == 0 {
		t.Fatalf("no verify reissue exercised: %+v", st)
	}
	if writebacks && envStats(ref.env).MetaWrites == 0 {
		t.Fatal("no metadata writeback exercised")
	}
	if got, want := fast.env.Metrics.Snapshot(), ref.env.Metrics.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatal("registry snapshots differ between the dormant and the full twin")
	}
	if !reflect.DeepEqual(fast.reads, ref.reads) {
		t.Fatal("delivered reads differ between the dormant and the full twin")
	}
	if *fast.meter != *ref.meter {
		t.Fatalf("energy meters differ: %+v vs %+v", *fast.meter, *ref.meter)
	}
	t.Logf("%d of %d ticks took the dormant shortcut", skipped, ticks)
}
