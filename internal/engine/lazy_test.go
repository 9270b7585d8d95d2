package engine

import (
	"math/rand"
	"reflect"
	"testing"
)

// gapActor is a schedActor that also lives through every cycle, the way
// a core retires gap instructions: it accounts the cycles since its last
// Advance itself, so an Advance skipped before a due cycle is made up at
// the next one. It logs the cycles lived at each due cycle.
type gapActor struct {
	schedActor
	next, lived uint64
	counts      []uint64
}

func (g *gapActor) Advance(now uint64) bool {
	g.lived += now + 1 - g.next
	g.next = now + 1
	n := len(g.log)
	active := g.schedActor.Advance(now)
	if len(g.log) > n {
		g.counts = append(g.counts, g.lived)
	}
	return active
}

// relayActor waits (Horizon) for the shared state to change, then acts
// privately delay cycles later. While an act is pending it ignores the
// shared state, as a core inside an instruction gap ignores the memory
// system, so its pending answer stays valid whatever peers do.
type relayActor struct {
	w     *world
	delay uint64
	seen  int
	due   uint64
	log   []event
}

func (r *relayActor) NextEventAt(now uint64) uint64 {
	if r.due > now {
		return r.due
	}
	return Horizon
}

func (r *relayActor) Advance(now uint64) bool {
	if r.due != 0 {
		if now < r.due {
			return false
		}
		r.log = append(r.log, event{now, r.w.shared})
		r.due = 0
	}
	if r.w.shared != r.seen {
		r.seen = r.w.shared
		r.due = now + r.delay
	}
	return false
}

// The lazy variants mark the same actors DueOnly.
type (
	lazyGap      struct{ gapActor }
	lazyFollower struct{ followerActor }
	lazyRelay    struct{ relayActor }
)

func (*lazyGap) DueOnly()      {}
func (*lazyFollower) DueOnly() {}
func (*lazyRelay) DueOnly()    {}

// newMixedSystem draws 1-4 gap actors, 0-2 followers and 0-2 relays in a
// random registration order, each marked DueOnly when lazy is set and its
// coin says so; the draws do not depend on lazy, so the eager and the
// lazy build of one seed are the same system.
func newMixedSystem(rng *rand.Rand, limit int, lazy bool) []Actor {
	w := &world{}
	var actors []Actor
	for n := 1 + rng.Intn(4); n > 0; n-- {
		g := gapActor{schedActor: schedActor{w: w}}
		for c := 0; c < limit; c++ {
			if rng.Intn(8) == 0 {
				g.due = append(g.due, uint64(c))
				g.public = append(g.public, rng.Intn(2) == 0)
			}
		}
		if rng.Intn(2) == 0 && lazy {
			actors = append(actors, &lazyGap{g})
		} else {
			actors = append(actors, &g)
		}
	}
	for n := rng.Intn(3); n > 0; n-- {
		if rng.Intn(2) == 0 && lazy {
			actors = append(actors, &lazyFollower{followerActor{w: w}})
		} else {
			actors = append(actors, &followerActor{w: w})
		}
	}
	for n := rng.Intn(3); n > 0; n-- {
		r := relayActor{w: w, delay: 1 + uint64(rng.Intn(20))}
		if rng.Intn(2) == 0 && lazy {
			actors = append(actors, &lazyRelay{r})
		} else {
			actors = append(actors, &r)
		}
	}
	rng.Shuffle(len(actors), func(i, j int) { actors[i], actors[j] = actors[j], actors[i] })
	return actors
}

// history is what one actor observed in its Advance calls.
type history struct {
	events []event
	counts []uint64
}

func historyOf(a Actor) history {
	switch a := a.(type) {
	case *gapActor:
		return history{a.log, a.counts}
	case *lazyGap:
		return history{a.log, a.counts}
	case *followerActor:
		return history{events: a.log}
	case *lazyFollower:
		return history{events: a.log}
	case *relayActor:
		return history{events: a.log}
	case *lazyRelay:
		return history{events: a.log}
	}
	panic("unknown actor")
}

// runMixed runs one system through an engine with a hook of the given
// period and returns every actor's history and the processed cycles.
func runMixed(actors []Actor, every uint64) ([]history, []uint64) {
	e := New()
	for _, a := range actors {
		e.Add(a)
	}
	e.AddHook(every, func(uint64) {})
	var cycles []uint64
	for e.Step() {
		cycles = append(cycles, e.Clock().Now())
	}
	out := make([]history, len(actors))
	for i, a := range actors {
		out[i] = historyOf(a)
	}
	return out, cycles
}

// TestLazyActorsSeeEagerHistories runs random systems of gap actors,
// followers and relays twice: once with every actor advanced on every
// processed cycle, once with a random subset marked DueOnly. Every
// actor must observe the same history in both runs, and the engine must
// process the same cycles.
func TestLazyActorsSeeEagerHistories(t *testing.T) {
	for trial := 0; trial < 400; trial++ {
		const limit = 300
		seed := int64(5000 + trial)
		eager := newMixedSystem(rand.New(rand.NewSource(seed)), limit, false)
		lazy := newMixedSystem(rand.New(rand.NewSource(seed)), limit, true)
		every := uint64(0)
		if trial%3 == 0 {
			every = 1 + uint64(trial%17)
		}
		wantH, wantC := runMixed(eager, every)
		gotH, gotC := runMixed(lazy, every)
		if !reflect.DeepEqual(gotC, wantC) {
			t.Fatalf("trial %d: processed cycles %v, eager run %v", trial, gotC, wantC)
		}
		if !reflect.DeepEqual(gotH, wantH) {
			t.Fatalf("trial %d: histories diverge:\n lazy  %+v\n eager %+v", trial, gotH, wantH)
		}
	}
}

// duePulse and dueWatcher are pulseActor and watcherActor marked
// DueOnly.
type (
	duePulse   struct{ pulseActor }
	dueWatcher struct{ watcherActor }
)

func (*duePulse) DueOnly()   {}
func (*dueWatcher) DueOnly() {}

// TestDueOnlyAdvancesWhenDue pins when a DueOnly actor advances: at the
// cycle it named, and while blocked, at a cycle after the previous
// cycle's activity or after an earlier actor's activity in the same
// cycle — never at a peer's private event.
func TestDueOnlyAdvancesWhenDue(t *testing.T) {
	e := New()
	lazy := &duePulse{pulseActor{busyUntil: 500}}
	eager := &pulseActor{busyUntil: 1000}
	private := &schedActor{w: &world{}, due: []uint64{300}, public: []bool{false}}
	watcher := &dueWatcher{}
	e.Add(lazy)
	e.Add(eager)
	e.Add(private)
	e.Add(watcher)
	for e.Step() {
	}
	for _, c := range []struct {
		name      string
		got, want []uint64
	}{
		{"eager pulse", eager.advanced, []uint64{0, 300, 500, 501, 1000, 1001}},
		// Cycle 1000's completion comes from a later actor, so the
		// blocked lazy pulse sees it at 1001.
		{"lazy pulse", lazy.advanced, []uint64{0, 500, 501, 1001}},
		// The watcher registers after both pulses and sees each
		// completion in its own cycle.
		{"lazy watcher", watcher.advanced, []uint64{0, 500, 501, 1000, 1001}},
	} {
		if !equalCycles(c.got, c.want) {
			t.Errorf("%s advanced at %v, want %v", c.name, c.got, c.want)
		}
	}
}
