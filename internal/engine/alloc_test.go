//go:build !race

package engine

import "testing"

// TestEventQueueAllocFree pins the steady-state contract of the
// pending-cycle Step on a busier engine than TestEngineStepAllocFree:
// several actors and two hooks (progress and timeline) allocate nothing
// per processed cycle. The race detector instruments allocations, so the
// file is excluded under -race.
func TestEventQueueAllocFree(t *testing.T) {
	e := New()
	for i := 0; i < 4; i++ {
		e.Add(&tickActor{limit: 1 << 30})
	}
	e.Add(&watcherActor{})
	var fired int
	e.AddHook(3, func(uint64) { fired++ })
	e.AddHook(7, func(uint64) { fired++ })
	for i := 0; i < 16; i++ {
		if !e.Step() {
			t.Fatal("engine stalled during warm-up")
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if !e.Step() {
			t.Fatal("engine stalled")
		}
	}); n != 0 {
		t.Fatalf("Step with hooks allocates %.0f per cycle, want 0", n)
	}
	if fired == 0 {
		t.Fatal("hooks never fired")
	}
}

// TestEngineStepAllocFree covers the full Step path with a trivial
// actor: no per-cycle or per-actor garbage.
func TestEngineStepAllocFree(t *testing.T) {
	e := New()
	a := &tickActor{limit: 1 << 30}
	e.Add(a)
	// Warm-up.
	for i := 0; i < 16; i++ {
		if !e.Step() {
			t.Fatal("engine stalled during warm-up")
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if !e.Step() {
			t.Fatal("engine stalled")
		}
	}); n != 0 {
		t.Fatalf("Step allocates %.0f per cycle, want 0", n)
	}
}

// tickActor wants every cycle until its limit — the densest schedule the
// engine can see.
type tickActor struct {
	ticks uint64
	limit uint64
}

func (a *tickActor) NextEventAt(now uint64) uint64 {
	if a.ticks >= a.limit {
		return Horizon
	}
	return now + 1
}

func (a *tickActor) Advance(now uint64) bool {
	a.ticks++
	return false
}
