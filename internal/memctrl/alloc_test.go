//go:build !race

package memctrl

import (
	"math/rand"
	"runtime"
	"testing"

	"ladder/internal/bits"
	"ladder/internal/core"
	"ladder/internal/energy"
	"ladder/internal/reram"
)

// TestSaturatedControllerAllocFree pins the steady state of a saturated
// controller: once the request freelists, the pending lists and the
// metadata cache are warm, enqueueing and dispatching transactions
// allocates nothing. Every tick offers a write and a read over a fixed
// set of lines (so the FNW flip map stops growing); the write queue
// stays full, the controller drains, and reads take the banks writes
// leave free. The race detector instruments
// allocations, so the file is excluded under -race.
func TestSaturatedControllerAllocFree(t *testing.T) {
	env := testEnv(t)
	env.Store.SetResident(2, 1)
	scheme, err := core.NewScheme(core.SchemeHybrid, env, core.DefaultMetaCacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	meter, err := energy.NewMeter(energy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	c, err := NewController(DefaultConfig(), env, scheme, meter, func(*ReadReq, uint64) { reads++ })
	if err != nil {
		t.Fatal(err)
	}
	c.Instrument(0)
	// Lines in the first 32 rows: one row per (channel, rank, bank), so
	// the traffic spreads over every bank while the rows' metadata stays
	// resident in the cache.
	rng := rand.New(rand.NewSource(3))
	lines := make([]uint64, 256)
	data := make([]bits.Line, len(lines))
	for i := range lines {
		lines[i] = uint64(rng.Int63n(32 * reram.BlocksPerRow))
		rng.Read(data[i][:])
	}
	var now uint64
	writes := 0
	run := func(ticks int) {
		for range ticks {
			i := rng.Intn(len(lines))
			if c.EnqueueWrite(lines[i], data[i], now) {
				writes++
			}
			c.EnqueueRead(0, lines[rng.Intn(len(lines))], now)
			c.Tick(now)
			now++
		}
	}
	run(200_000)
	if c.WriteQueueLen() < DefaultConfig().WRQSize/2 {
		t.Fatalf("write queue not saturated: %d entries", c.WriteQueueLen())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	writes, reads = 0, 0
	runtime.ReadMemStats(&before)
	run(100_000)
	runtime.ReadMemStats(&after)
	if writes == 0 || reads == 0 {
		t.Fatalf("window accepted %d writes and delivered %d reads", writes, reads)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d allocations over %d enqueued writes and %d delivered reads, want 0", n, writes, reads)
	}
	t.Logf("no allocation over %d enqueued writes and %d delivered reads", writes, reads)
}
