package engine

import (
	"fmt"
	"reflect"
	"testing"
)

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
	// Boundaries at 999, 1999 fall in the dead window; they fire before
	// cycle 2500 is processed. 2999 is after the last event.
	want := []uint64{999, 1999}
	if len(fired) != len(want) || fired[0] != 999 || fired[1] != 1999 {
		t.Fatalf("progress fired at %v, want %v", fired, want)
	}
}

func TestEngineObserverHook(t *testing.T) {
	e := New()
	p := &pulseActor{busyUntil: 2500}
	e.Add(p)
	var fired []string
	e.AddHook(1000, func(now uint64) { fired = append(fired, fmt.Sprint("progress@", now)) })
	e.AddHook(700, func(now uint64) { fired = append(fired, fmt.Sprint("observer@", now)) })
	for e.Step() {
	}
	// The observer's boundaries inside the live window are 699, 1399 and
	// 2099, the progress hook's 999 and 1999; all fire in cycle order
	// across the two hooks, each with its own boundary. 2799 is after the
	// last real event, so it never fires: an observer must not keep a
	// finished simulation alive.
	want := []string{"observer@699", "progress@999", "observer@1399", "progress@1999", "observer@2099"}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("hooks fired %v, want %v", fired, want)
	}
	// Hook boundaries are not processed cycles: the pulse actor sees
	// exactly the cycles it sees without hooks.
	if !equalCycles(p.advanced, []uint64{0, 2500, 2501}) {
		t.Fatalf("pulse advanced at %v, want [0 2500 2501]", p.advanced)
	}
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

// jumpActor moves the clock forward mid-cycle once, at cycle at, the way
// the crash actor's embedded drain does, and reports activity.
type jumpActor struct {
	clock  *Clock
	at, to uint64
}

func (j *jumpActor) NextEventAt(now uint64) uint64 {
	if now < j.at {
		return j.at
	}
	return Horizon
}

func (j *jumpActor) Advance(now uint64) bool {
	if now != j.at {
		return false
	}
	j.clock.AdvanceTo(j.to)
	return true
}

// TestEngineExternalScheduleAndStaleDiscard pins a mid-cycle clock jump:
// actors after the jumper see the new time in the same cycle, actors
// before it are asked for their next event at the new time, and no cycle
// at or before the jump is processed afterwards: the completion the jump
// skipped over (due at 50) lands on the first cycle after it, 101, and
// is never replayed at 50. Hook boundaries the jump skipped over never
// fire.
func TestEngineExternalScheduleAndStaleDiscard(t *testing.T) {
	e := New()
	before := &pulseActor{busyUntil: 50}
	after := &pulseActor{busyUntil: 60}
	e.Add(before)
	e.Add(&jumpActor{clock: e.Clock(), at: 10, to: 100})
	e.Add(after)
	var fired []uint64
	e.AddHook(5, func(now uint64) { fired = append(fired, now) })
	for e.Step() {
	}
	if !equalCycles(fired, []uint64{4, 9}) {
		t.Fatalf("hook fired at %v, want [4 9]", fired)
	}
	want := []uint64{0, 10, 101, 102}
	if !equalCycles(before.advanced, want) {
		t.Fatalf("actor before the jump advanced at %v, want %v", before.advanced, want)
	}
	want = []uint64{0, 100, 101, 102}
	if !equalCycles(after.advanced, want) {
		t.Fatalf("actor after the jump advanced at %v, want %v", after.advanced, want)
	}
	if e.Clock().Now() != 102 {
		t.Fatalf("clock = %d, want 102", e.Clock().Now())
	}
}

func equalCycles(got, want []uint64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
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
