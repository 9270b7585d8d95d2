//go:build !race

package memctrl

import (
	"math/rand"
	"runtime"
	"strings"
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
//
// runtime.MemStats.Mallocs is process-wide: it also counts allocations
// by runtime goroutines, such as the background scavenger growing a
// P's timer heap when it goes back to sleep, which run at
// timing-dependent moments. So the window reads the heap profile too,
// by allocating stack: an allocation on a stack through this module
// fails the test, and so does any Mallocs count the profile does not
// attribute to a stack outside the module (the profile skips a tiny
// allocation packed into an already sampled block).
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
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1 // sample every allocation from here on
	var before, after runtime.MemStats
	writes, reads = 0, 0
	profBefore := allocsByStack()
	runtime.ReadMemStats(&before)
	run(100_000)
	runtime.ReadMemStats(&after)
	profAfter := allocsByStack()
	if writes == 0 || reads == 0 {
		t.Fatalf("window accepted %d writes and delivered %d reads", writes, reads)
	}
	var module, outside uint64
	var sites []string
	for stack, objects := range profAfter {
		d := objects - profBefore[stack]
		if d <= 0 {
			continue
		}
		switch s := stackString(stack); {
		case strings.Contains(s, "memctrl.allocsByStack"):
			// The profile snapshots' own allocations.
		case strings.Contains(s, "ladder/"):
			module += uint64(d)
			sites = append(sites, s)
		default:
			outside += uint64(d)
		}
	}
	if n := after.Mallocs - before.Mallocs; module != 0 || n > outside {
		t.Fatalf("%d allocations (%d on module stacks, %d on runtime stacks) over %d enqueued writes and %d delivered reads, want 0:\n%s",
			n, module, outside, writes, reads, strings.Join(sites, "\n"))
	}
	t.Logf("no allocation over %d enqueued writes and %d delivered reads", writes, reads)
}

// allocsByStack returns the heap profile's cumulative allocated-object
// count per allocating stack. It collects first: the profile publishes
// allocations once a collection completes.
func allocsByStack() map[[32]uintptr]int64 {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	for {
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	out := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		out[r.Stack0] += r.AllocObjects
	}
	return out
}

// stackString names a profile stack's functions, innermost first.
func stackString(stack [32]uintptr) string {
	var b strings.Builder
	frames := runtime.CallersFrames((&runtime.MemProfileRecord{Stack0: stack}).Stack())
	for {
		f, more := frames.Next()
		b.WriteString(" < " + f.Function)
		if !more {
			return b.String()
		}
	}
}
