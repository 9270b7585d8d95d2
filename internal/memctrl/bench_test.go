package memctrl

import (
	"testing"

	"ladder/internal/core"
	"ladder/internal/energy"
	"ladder/internal/metrics"
	"ladder/internal/reram"
	"ladder/internal/timing"
	"ladder/internal/trace"
)

// sparseWriteEvery is the sparse benchmark's write interval in ticks
// (256 ns): slower than lbm's writes drain, so the queue stays short.
const sparseWriteEvery = 1024

// BenchmarkControllerTick times one Controller.Tick on the paper's
// geometry and timing tables with a real LADDER-Hybrid scheme fed by
// lbm's write stream.
//
//   - saturated: every tick first offers the next write, so the write
//     queue stays full and the controller stays in drain mode. The time
//     goes to the per-write datapath (scheme latency, FNW, store write,
//     run-level counts) and to the refused offers between completions.
//   - sparse: one write every sparseWriteEvery ticks, so most ticks
//     fall between an enqueue and the next pulse finish and are dormant.
func BenchmarkControllerTick(b *testing.B) {
	b.Run("saturated", func(b *testing.B) {
		if n := benchControllerTick(b, 1); n < DefaultConfig().WRQSize/2 {
			b.Fatalf("write queue not saturated: %d entries", n)
		}
	})
	b.Run("sparse", func(b *testing.B) {
		if n := benchControllerTick(b, sparseWriteEvery); n >= DefaultConfig().WRQSize/2 {
			b.Fatalf("write queue built up: %d entries", n)
		}
	})
}

// benchControllerTick times ticks that offer a write every writeEvery
// ticks (retrying a refused one on the next offer) and returns the
// final write-queue length.
func benchControllerTick(b *testing.B, writeEvery uint64) int {
	tables, err := timing.DefaultTableSet()
	if err != nil {
		b.Fatal(err)
	}
	geom := reram.DefaultGeometry()
	store, err := reram.NewStore(geom)
	if err != nil {
		b.Fatal(err)
	}
	store.SetResident(2, 1)
	env := &core.Env{Geom: geom, Store: store, Tables: tables, Metrics: metrics.NewRegistry()}
	scheme, err := core.NewScheme(core.SchemeHybrid, env, core.DefaultMetaCacheConfig())
	if err != nil {
		b.Fatal(err)
	}
	meter, err := energy.NewMeter(energy.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := NewController(DefaultConfig(), env, scheme, meter, nil)
	if err != nil {
		b.Fatal(err)
	}
	prof, err := trace.Lookup("lbm")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := trace.NewGenerator(prof, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	nextWrite := func() trace.Access {
		for {
			if a := gen.Next(); a.Write {
				return a
			}
		}
	}
	next := nextWrite()
	var now uint64
	tick := func() {
		if now%writeEvery == 0 && ctrl.EnqueueWrite(next.Line, next.Data, now) {
			next = nextWrite()
		}
		ctrl.Tick(now)
		now++
	}
	// Warm the metadata cache and the touched rows past the cold start.
	for i := 0; i < 1<<18; i++ {
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.StopTimer()
	if err := ctrl.Err(); err != nil {
		b.Fatal(err)
	}
	return ctrl.WriteQueueLen()
}
