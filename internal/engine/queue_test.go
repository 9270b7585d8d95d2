package engine

import (
	"math/rand"
	"reflect"
	"testing"
)

// world is the state the random actors share: shared changes only on a
// public event, which the acting actor reports as activity.
type world struct{ shared int }

// event is one actor-visible observation: the cycle and the shared state
// the actor saw.
type event struct {
	at     uint64
	shared int
}

// schedActor acts at a fixed, strictly increasing list of due cycles. A
// public event bumps the shared state and reports activity; a private
// one only logs. Advance at any other cycle is a no-op, so the actor
// honours the engine contract.
type schedActor struct {
	w      *world
	due    []uint64
	public []bool
	idx    int
	log    []event
}

func (a *schedActor) NextEventAt(now uint64) uint64 {
	for i := a.idx; i < len(a.due); i++ {
		if a.due[i] > now {
			return a.due[i]
		}
	}
	return Horizon
}

func (a *schedActor) Advance(now uint64) bool {
	if a.idx >= len(a.due) || a.due[a.idx] != now {
		return false
	}
	pub := a.public[a.idx]
	a.idx++
	if pub {
		a.w.shared++
	}
	a.log = append(a.log, event{now, a.w.shared})
	return pub
}

// followerActor is blocked (Horizon) until a peer's activity changes the
// shared state; it logs the first cycle at which it sees each change.
type followerActor struct {
	w    *world
	seen int
	log  []event
}

func (f *followerActor) NextEventAt(uint64) uint64 { return Horizon }

func (f *followerActor) Advance(now uint64) bool {
	if f.w.shared != f.seen {
		f.seen = f.w.shared
		f.log = append(f.log, event{now, f.seen})
	}
	return false
}

// recorder wraps an actor and keeps its last answers, so a test can
// check each processed cycle against the previous step's schedule.
type recorder struct {
	Actor
	cycles []uint64 // every cycle Advance ran at
	active bool     // last Advance reported activity
	answer uint64   // last NextEventAt answer
}

func (r *recorder) Advance(now uint64) bool {
	r.cycles = append(r.cycles, now)
	r.active = r.Actor.Advance(now)
	return r.active
}

func (r *recorder) NextEventAt(now uint64) uint64 {
	r.answer = r.Actor.NextEventAt(now)
	return r.answer
}

// randomSystem draws 1-4 scheduled actors and 0-2 followers in a random
// registration order, plus an optional hook period (0 = none). limit
// bounds the due cycles.
type randomSystem struct {
	w      *world
	actors []Actor
	every  uint64
}

func newRandomSystem(rng *rand.Rand, limit int) *randomSystem {
	s := &randomSystem{w: &world{}}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		a := &schedActor{w: s.w}
		for c := 0; c < limit; c++ {
			if rng.Intn(8) == 0 {
				a.due = append(a.due, uint64(c))
				a.public = append(a.public, rng.Intn(2) == 0)
			}
		}
		s.actors = append(s.actors, a)
	}
	for n := rng.Intn(3); n > 0; n-- {
		s.actors = append(s.actors, &followerActor{w: s.w})
	}
	rng.Shuffle(len(s.actors), func(i, j int) { s.actors[i], s.actors[j] = s.actors[j], s.actors[i] })
	if rng.Intn(2) == 0 {
		s.every = 1 + uint64(rng.Intn(15))
	}
	return s
}

// logs returns every actor's observations, in registration order.
func (s *randomSystem) logs() [][]event {
	out := make([][]event, len(s.actors))
	for i, a := range s.actors {
		switch a := a.(type) {
		case *schedActor:
			out[i] = a.log
		case *followerActor:
			out[i] = a.log
		}
	}
	return out
}

// TestQueuePopOrderProperty checks the engine against a reference loop
// that ticks every cycle, on random actor schedules: the engine's
// processed cycles strictly increase, each is one some actor's
// NextEventAt named or one after activity (never a bare hook boundary),
// and every actor-visible observation and hook firing matches the
// reference.
func TestQueuePopOrderProperty(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		const limit = 200
		sys := newRandomSystem(rand.New(rand.NewSource(int64(trial))), limit)
		ref := newRandomSystem(rand.New(rand.NewSource(int64(trial))), limit)

		e := New()
		recs := make([]*recorder, len(sys.actors))
		for i, a := range sys.actors {
			recs[i] = &recorder{Actor: a}
			e.Add(recs[i])
		}
		var hooked, refHooked []uint64
		e.AddHook(sys.every, func(now uint64) { hooked = append(hooked, now) })

		var prev uint64
		named := map[uint64]bool{0: true}
		for step := 0; e.Step(); step++ {
			now := e.Clock().Now()
			if step > 0 && now <= prev {
				t.Fatalf("trial %d: processed cycle %d after %d", trial, now, prev)
			}
			if !named[now] {
				t.Fatalf("trial %d: cycle %d was neither named nor after activity", trial, now)
			}
			prev = now
			named = map[uint64]bool{}
			for _, r := range recs {
				named[r.answer] = true
				if r.active {
					named[now+1] = true
				}
			}
		}
		end := e.Clock().Now()

		// Reference: tick every cycle up to the engine's last one, firing
		// the hook at every boundary on the way.
		for c := uint64(0); c <= end; c++ {
			if ref.every != 0 && (c+1)%ref.every == 0 {
				refHooked = append(refHooked, c)
			}
			for _, a := range ref.actors {
				a.Advance(c)
			}
		}
		// Ticking past the engine's end must change nothing: the engine
		// stopped only when no actor had anything left to do.
		before := ref.logs()
		for c := end + 1; c <= end+limit; c++ {
			for _, a := range ref.actors {
				a.Advance(c)
			}
		}
		if !reflect.DeepEqual(before, ref.logs()) {
			t.Fatalf("trial %d: engine stopped at %d with work left", trial, end)
		}
		if got, want := sys.logs(), ref.logs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: actor observations diverge:\n engine    %v\n reference %v", trial, got, want)
		}
		if !reflect.DeepEqual(hooked, refHooked) {
			t.Fatalf("trial %d: hook fired at %v, reference %v", trial, hooked, refHooked)
		}
	}
}

// TestQueuePopIsAlwaysMin checks the pending-cycle rule step by step:
// each processed cycle is exactly the minimum of the previous step's
// NextEventAt answers (now+1 after activity), whatever hook is
// installed, and Step returns false exactly when no actor names a cycle.
func TestQueuePopIsAlwaysMin(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		sys := newRandomSystem(rand.New(rand.NewSource(1000+int64(trial))), 300)
		e := New()
		recs := make([]*recorder, len(sys.actors))
		for i, a := range sys.actors {
			recs[i] = &recorder{Actor: a}
			e.Add(recs[i])
		}
		e.AddHook(sys.every, func(uint64) {})

		pending := uint64(0)
		for {
			ok := e.Step()
			if pending == Horizon {
				if ok {
					t.Fatalf("trial %d: stepped to %d with nothing pending", trial, e.Clock().Now())
				}
				break
			}
			if !ok {
				t.Fatalf("trial %d: Step false with cycle %d pending", trial, pending)
			}
			now := e.Clock().Now()
			if now != pending {
				t.Fatalf("trial %d: processed %d, want the pending cycle %d (hook period %d)", trial, now, pending, sys.every)
			}
			pending = Horizon
			for _, r := range recs {
				pending = min(pending, r.answer)
				if r.active {
					pending = min(pending, now+1)
				}
			}
		}
	}
}

// TestQueuePeekAndEmpty pins the empty case: an engine with nothing
// pending returns false from Step and stays put, and an installed hook
// does not keep it alive.
func TestQueuePeekAndEmpty(t *testing.T) {
	e := New()
	w := &watcherActor{}
	e.Add(w)
	var fired []uint64
	e.AddHook(1, func(now uint64) { fired = append(fired, now) })
	if !e.Step() {
		t.Fatal("a new engine must process cycle 0")
	}
	for i := 0; i < 3; i++ {
		if e.Step() {
			t.Fatalf("step %d: a hook kept an engine with nothing pending alive (clock %d)", i, e.Clock().Now())
		}
	}
	if e.Clock().Now() != 0 || len(w.advanced) != 1 || len(fired) != 1 || fired[0] != 0 {
		t.Fatalf("clock %d, actor advanced at %v, hook fired at %v; want 0, [0], [0]",
			e.Clock().Now(), w.advanced, fired)
	}
}
