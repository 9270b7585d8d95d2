// Package engine is the discrete-event core of the simulator: a
// simulation Clock and an Engine that advances a fixed, ordered set of
// Actors only at cycles where something observable can happen —
// skipping the dead cycles a naive tick loop would burn inside
// multi-hundred-cycle RESET pulses.
//
// The contract that makes skipping sound (see docs/ARCHITECTURE.md,
// "Engine"):
//
//   - Advance(now) processes exactly one cycle and reports whether the
//     actor changed state in a way that may affect *other* actors
//     (completions, dispatches). Self-contained evolution (a core
//     retiring gap instructions) is not activity.
//   - NextEventAt(now) is the earliest cycle strictly after now at which
//     the actor's Advance would not be a no-op, assuming no other actor
//     acts first; Horizon means "nothing until someone wakes me".
//   - After any cycle with activity, the engine always processes the
//     next cycle too, so an actor blocked on another (a core stalled on
//     a full write queue) re-evaluates exactly when the blocker's state
//     has changed.
//
// Under that contract every cycle the engine skips is provably a no-op
// for every actor, so the event-driven run is cycle-identical to the
// seed tick loop (pinned by the golden test in internal/sim).
//
// A processed cycle advances every actor, except that a DueOnly actor
// (a core) is advanced only when it is due: at the cycle its last
// NextEventAt answer named, or, while that answer is Horizon, at a cycle
// after activity. It makes up the cycles in between itself.
//
// Periodic hooks (progress, timeline) fire at their boundary cycles but
// never add a processed cycle: the actors alone decide which cycles are
// processed, so an observed run equals a plain one.
package engine

// Horizon is the "nothing pending" sentinel: a cycle later than any a
// simulation can reach.
const Horizon = ^uint64(0)

// Clock is the simulation's monotonic time source, in CPU cycles.
type Clock struct {
	now uint64
}

// Now returns the current cycle.
func (c *Clock) Now() uint64 { return c.now }

// AdvanceTo moves the clock forward to cycle t. Time never runs
// backwards; a violation is a scheduling bug, so it panics.
func (c *Clock) AdvanceTo(t uint64) {
	if t < c.now {
		panic("engine: clock moved backwards")
	}
	c.now = t
}

// Actor is a simulation component driven by the Engine. See the package
// comment for the contract that makes cycle skipping sound.
type Actor interface {
	// NextEventAt returns the earliest cycle strictly after now at which
	// this actor needs Advance called (assuming no other actor acts
	// first), or Horizon if it is blocked until another actor's activity
	// wakes it.
	NextEventAt(now uint64) uint64
	// Advance processes cycle now and reports whether the actor changed
	// state in a way that may affect other actors.
	Advance(now uint64) bool
}

// DueOnly is an Actor whose Advance before its due cycle does nothing it
// cannot make up later: a core inside an instruction gap retires one
// instruction per cycle whatever its peers do, and applies the cycles it
// was not advanced at in bulk at its next Advance. The engine advances
// a DueOnly actor only at a processed cycle at or after the one its last
// NextEventAt answer named, or, while that answer is Horizon, at a cycle
// after activity (the previous cycle's, or an earlier actor's in the
// same cycle). It asks the actor for its next event only after
// advancing it, so peers' activity may change a DueOnly actor's answer
// only while the answer is Horizon.
type DueOnly interface {
	Actor
	// DueOnly marks the actor; the engine never calls it.
	DueOnly()
}

// member is one registered actor and its last NextEventAt answer.
type member struct {
	a       Actor
	dueOnly bool
	// next is the actor's last NextEventAt answer (0 before the first
	// cycle), valid until the actor advances again.
	next uint64
	// advanced marks an actor advanced in the current cycle, whose
	// answer the step asks for afresh once every actor has advanced.
	advanced bool
}

// Engine drives an ordered set of actors through simulated time. Every
// processed cycle advances the actors in registration order — the
// ordering guarantee the cycle-identical refactor depends on — skipping
// DueOnly actors that are not due, and the pending cycle, the minimum of
// the actors' NextEventAt answers, decides which cycles need processing
// at all.
type Engine struct {
	clock   Clock
	members []member
	// next is the pending cycle: 0 after New, Horizon when nothing is
	// pending. Every step recomputes it from the actors' answers, each
	// strictly after the processed cycle, so it never lies in the past.
	next uint64
	// active records whether the last processed cycle had activity.
	active bool

	// hooks are the installed periodic callbacks (progress, observers),
	// fired in boundary order before the cycle that reaches them.
	hooks []periodicHook
}

// periodicHook is one installed periodic callback: fn(b) fires for every
// boundary cycle b with (b+1) divisible by every. next is the hook's
// next boundary cycle.
type periodicHook struct {
	every uint64
	fn    func(now uint64)
	next  uint64
}

// New returns an engine with its first cycle (0) pending.
func New() *Engine { return &Engine{} }

// Clock exposes the engine's clock. Actors may advance it mid-cycle
// (e.g. an embedded drain loop); the engine re-reads it between actor
// advances, and the next pending cycle lies after the new time.
func (e *Engine) Clock() *Clock { return &e.clock }

// Add appends an actor. Registration order is advance order within each
// processed cycle. An actor implementing DueOnly is advanced only when
// due.
func (e *Engine) Add(a Actor) {
	_, dueOnly := a.(DueOnly)
	e.members = append(e.members, member{a: a, dueOnly: dueOnly})
}

// AddHook installs a periodic callback (a progress reporter, the
// timeline epoch sampler): fn(b) fires for every boundary cycle b with
// (b+1) divisible by every, before the actors advance at the first
// processed cycle at or after b. Boundaries fire in cycle order, and at
// a shared boundary in installation order. A hook is NOT an actor: it
// schedules nothing, must not mutate simulation state, and reads its
// boundary from its argument, never the clock. The engine processes only
// the cycles the actors name, so installing a hook cannot change which
// cycles actors perceive, and a hook never keeps a finished simulation
// alive. A zero period or nil callback installs nothing.
func (e *Engine) AddHook(every uint64, fn func(now uint64)) {
	if every == 0 || fn == nil {
		return
	}
	e.hooks = append(e.hooks, periodicHook{every: every, fn: fn, next: every - 1})
}

// Step processes the pending cycle t. Every hook boundary at or before t
// fires first, then the actors advance in order (a DueOnly actor only
// when due), then the pending cycle becomes the minimum of the actors'
// answers, fresh for every actor advanced. Returns false when nothing is
// pending — with live actors that means the simulation is deadlocked, as
// a healthy system always has a next event.
func (e *Engine) Step() bool {
	t := e.next
	if t == Horizon {
		return false
	}
	for {
		var h *periodicHook
		for i := range e.hooks {
			if c := &e.hooks[i]; c.next <= t && (h == nil || c.next < h.next) {
				h = c
			}
		}
		if h == nil {
			break
		}
		h.fn(h.next)
		h.next += h.every
	}
	e.clock.AdvanceTo(t)
	woken := e.active
	active := false
	for i := range e.members {
		m := &e.members[i]
		// Re-read the clock: an actor may legitimately advance it (an
		// embedded drain), and later actors must see the new time.
		now := e.clock.Now()
		// A DueOnly actor not yet due waits; a blocked one (Horizon)
		// advances once anything was active since its last answer.
		if m.dueOnly && m.next > now && (m.next != Horizon || !woken && !active) {
			continue
		}
		m.advanced = true
		if m.a.Advance(now) {
			active = true
		}
	}
	now := e.clock.Now()
	next := Horizon
	for i := range e.members {
		m := &e.members[i]
		if m.advanced {
			m.next = m.a.NextEventAt(now)
			m.advanced = false
		}
		next = min(next, m.next)
	}
	if active && now+1 < next {
		next = now + 1
	}
	e.next = next
	e.active = active
	// Boundaries an embedded drain jumped over are skipped.
	for i := range e.hooks {
		if h := &e.hooks[i]; h.next <= now {
			h.next = ((now+1)/h.every+1)*h.every - 1
		}
	}
	return true
}
