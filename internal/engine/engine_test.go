package engine

import "testing"

// pulseActor models a bank-like component: busy until a completion time,
// then idle. It records every cycle it was advanced at.
type pulseActor struct {
	busyUntil uint64
	advanced  []uint64
}

func (p *pulseActor) NextEventAt(now uint64) uint64 {
	if p.busyUntil > now {
		return p.busyUntil
	}
	return Horizon
}

func (p *pulseActor) Advance(now uint64) bool {
	p.advanced = append(p.advanced, now)
	if p.busyUntil != 0 && now >= p.busyUntil {
		p.busyUntil = 0
		return true // completion: activity wakes blocked peers
	}
	return false
}

// watcherActor is blocked (Horizon) until some peer's activity causes a
// cycle to be processed after it; it records when it ran.
type watcherActor struct{ advanced []uint64 }

func (w *watcherActor) NextEventAt(uint64) uint64 { return Horizon }
func (w *watcherActor) Advance(now uint64) bool   { w.advanced = append(w.advanced, now); return false }

func TestEngineSkipsDeadCyclesAndWakesOnActivity(t *testing.T) {
	e := New()
	p := &pulseActor{busyUntil: 1000}
	w := &watcherActor{}
	e.Add(p)
	e.Add(w)

	for e.Step() {
	}
	// Cycle 0 (initial), cycle 1000 (completion), cycle 1001 (post-activity
	// wake) — and nothing in between.
	want := []uint64{0, 1000, 1001}
	if len(p.advanced) != len(want) {
		t.Fatalf("advanced at %v, want %v", p.advanced, want)
	}
	for i, at := range want {
		if p.advanced[i] != at {
			t.Fatalf("advanced at %v, want %v", p.advanced, want)
		}
	}
	// Every processed cycle advances every actor, in order.
	if len(w.advanced) != len(p.advanced) {
		t.Fatalf("watcher advanced %v, pulse %v", w.advanced, p.advanced)
	}
	if e.Clock().Now() != 1001 {
		t.Fatalf("clock = %d, want 1001", e.Clock().Now())
	}
}

func TestEngineStepFalseWhenNoEvents(t *testing.T) {
	e := New()
	w := &watcherActor{}
	e.Add(w)
	if !e.Step() { // cycle 0
		t.Fatal("first step should process cycle 0")
	}
	if e.Step() {
		t.Fatal("blocked-only actor set should run out of events")
	}
}

func TestEngineProgressHook(t *testing.T) {
	e := New()
	p := &pulseActor{busyUntil: 2500}
	e.Add(p)
	var fired []uint64
	e.AddHook(1000, func(now uint64) { fired = append(fired, now) })
	for e.Step() {
	}
	// Boundaries at 999, 1999 fall in the dead window; the hook must force
	// them to be processed anyway. 2999 is after the last event.
	want := []uint64{999, 1999}
	if len(fired) != len(want) || fired[0] != 999 || fired[1] != 1999 {
		t.Fatalf("progress fired at %v, want %v", fired, want)
	}
}

func TestEngineObserverHook(t *testing.T) {
	e := New()
	p := &pulseActor{busyUntil: 2500}
	e.Add(p)
	var progress, observer []uint64
	e.AddHook(1000, func(now uint64) { progress = append(progress, now) })
	e.AddHook(700, func(now uint64) { observer = append(observer, now) })
	for e.Step() {
	}
	// The observer's boundaries inside the live window: 699, 1399, 2099.
	// 2799 is after the last real event, so it never fires — an observer
	// must not keep a finished simulation alive.
	wantObs := []uint64{699, 1399, 2099}
	if len(observer) != len(wantObs) || observer[0] != 699 || observer[1] != 1399 || observer[2] != 2099 {
		t.Fatalf("observer fired at %v, want %v", observer, wantObs)
	}
	// The progress hook coexists, unchanged by the observer's presence.
	if len(progress) != 2 || progress[0] != 999 || progress[1] != 1999 {
		t.Fatalf("progress fired at %v, want [999 1999]", progress)
	}
	// Actor-visible cycles: observer boundaries are processed (dead)
	// cycles, so the pulse actor sees them too — the contract is that dead
	// cycles are state-neutral, not invisible.
	if e.Clock().Now() != 2501 {
		t.Fatalf("clock = %d, want 2501", e.Clock().Now())
	}
}

func TestEngineObserverSharedBoundaryOrder(t *testing.T) {
	e := New()
	p := &pulseActor{busyUntil: 1200}
	e.Add(p)
	var order []string
	e.AddHook(500, func(uint64) { order = append(order, "progress") })
	e.AddHook(500, func(uint64) { order = append(order, "observer") })
	for e.Step() {
	}
	// Boundaries 499 and 999 fire both hooks, in installation order.
	want := []string{"progress", "observer", "progress", "observer"}
	if len(order) != len(want) {
		t.Fatalf("hooks fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("hooks fired %v, want %v", order, want)
		}
	}
}

func TestEngineObserverZeroPeriodDisabled(t *testing.T) {
	e := New()
	w := &watcherActor{}
	e.Add(w)
	e.AddHook(0, func(uint64) { t.Fatal("zero-period observer fired") })
	e.AddHook(10, nil)
	for e.Step() {
	}
	if len(e.hooks) != 0 {
		t.Fatalf("disabled observers installed %d hooks", len(e.hooks))
	}
}

func TestEngineExternalScheduleAndStaleDiscard(t *testing.T) {
	e := New()
	w := &watcherActor{}
	e.Add(w)
	e.Schedule(5)
	e.Schedule(5) // duplicate: coalesced
	e.Schedule(3)
	for e.Step() {
	}
	want := []uint64{0, 3, 5}
	if len(w.advanced) != len(want) {
		t.Fatalf("advanced %v, want %v", w.advanced, want)
	}
	for i := range want {
		if w.advanced[i] != want[i] {
			t.Fatalf("advanced %v, want %v", w.advanced, want)
		}
	}
	// Scheduling into the processed past is discarded, not replayed.
	e.Schedule(2)
	if e.Step() {
		t.Fatal("stale event should be discarded")
	}
}

func TestClockMonotonic(t *testing.T) {
	var c Clock
	c.AdvanceTo(10)
	c.AdvanceTo(10)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards clock should panic")
		}
	}()
	c.AdvanceTo(9)
}
