package engine

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

// Engine drives an ordered set of actors through simulated time. Every
// processed cycle advances *all* actors in registration order — the
// ordering guarantee the cycle-identical refactor depends on — and the
// event queue decides which cycles need processing at all.
type Engine struct {
	clock  Clock
	actors []Actor
	q      EventQueue

	processed bool   // at least one cycle has been processed
	last      uint64 // last processed cycle (valid when processed)

	// hooks are the installed periodic callbacks (progress, observers),
	// fired in installation order at the top of their boundary cycles.
	hooks []periodicHook
}

// periodicHook is one installed periodic callback: fn fires at the top
// of every cycle t with (t+1) divisible by every, before any actor
// advances. next tracks the hook's next boundary cycle.
type periodicHook struct {
	every uint64
	fn    func(now uint64)
	next  uint64
}

// New returns an engine with its first cycle (0) scheduled.
func New() *Engine {
	e := &Engine{}
	e.q.Push(0, nil)
	return e
}

// Clock exposes the engine's clock. Actors may advance it mid-cycle
// (e.g. an embedded drain loop); the engine re-reads it between actor
// advances and discards events scheduled into the skipped-over past.
func (e *Engine) Clock() *Clock { return &e.clock }

// Add appends an actor. Registration order is advance order within each
// processed cycle.
func (e *Engine) Add(a Actor) { e.actors = append(e.actors, a) }

// Schedule requests that cycle t be processed (an external wakeup).
func (e *Engine) Schedule(t uint64) { e.q.Push(t, nil) }

// AddHook installs a periodic callback (a progress reporter, the
// timeline epoch sampler): fn fires at the top of every cycle t with
// (t+1) divisible by every — i.e. once per `every` cycles — before any
// actor advances. A hook is NOT an actor: it schedules nothing and must
// not mutate simulation state, so installing one cannot change which
// cycles actors perceive or the order they advance in. Boundary cycles
// are only forced while a real event is pending, so a hook never keeps
// an otherwise-finished simulation alive, and the extra processed cycles
// are dead ones (no actor acts), which the engine contract already makes
// equivalent to skipping. Multiple hooks may coexist; at a shared
// boundary they fire in installation order. A zero period or nil
// callback installs nothing, so an unused hook costs nothing.
func (e *Engine) AddHook(every uint64, fn func(now uint64)) {
	if every == 0 || fn == nil {
		return
	}
	e.hooks = append(e.hooks, periodicHook{every: every, fn: fn, next: every - 1})
}

// nextHookAt returns the earliest pending hook boundary (Horizon when
// no hooks are installed).
func (e *Engine) nextHookAt() uint64 {
	next := Horizon
	for i := range e.hooks {
		if e.hooks[i].next < next {
			next = e.hooks[i].next
		}
	}
	return next
}

// nextTime pops the earliest useful scheduled time: duplicates and
// events at or before the last processed cycle (satisfied by a clock
// jump) are discarded. A pending hook boundary (progress, observer)
// earlier than the next real event is processed first (without
// consuming the event), so hooks keep firing through long dead windows
// but never keep an otherwise-finished simulation alive.
func (e *Engine) nextTime() (uint64, bool) {
	for {
		t, ok := e.q.Peek()
		if !ok {
			return 0, false
		}
		if e.processed && t <= e.last {
			e.q.Pop()
			continue
		}
		if h := e.nextHookAt(); h < t {
			return h, true
		}
		// Coalesce every entry for this cycle.
		for {
			e.q.Pop()
			nt, ok := e.q.Peek()
			if !ok || nt != t {
				break
			}
		}
		return t, true
	}
}

// Step advances simulated time to the next scheduled cycle and processes
// it: periodic hooks fire, then every actor advances in order, then
// each actor's next event is re-scheduled. Returns false when no events
// remain — with live actors that means the simulation is deadlocked, as
// a healthy system always has a next event.
func (e *Engine) Step() bool {
	t, ok := e.nextTime()
	if !ok {
		return false
	}
	e.clock.AdvanceTo(t)
	for i := range e.hooks {
		if (t+1)%e.hooks[i].every == 0 {
			e.hooks[i].fn(t)
		}
	}
	active := false
	for _, a := range e.actors {
		// Re-read the clock: an actor may legitimately advance it (an
		// embedded drain), and later actors must see the new time.
		if a.Advance(e.clock.Now()) {
			active = true
		}
	}
	now := e.clock.Now()
	e.processed = true
	e.last = now
	// Every actor just advanced, so each fresh NextEventAt subsumes any
	// event it scheduled earlier: pushing only the minimum keeps the heap
	// at O(1) churn per step instead of one push per actor. Stale entries
	// from external Schedule calls still pop first if earlier.
	next := Horizon
	for _, a := range e.actors {
		if n := a.NextEventAt(now); n < next {
			next = n
		}
	}
	if active && now+1 < next {
		next = now + 1
	}
	if next != Horizon {
		e.q.Push(next, nil)
	}
	for i := range e.hooks {
		if h := &e.hooks[i]; h.next <= now {
			h.next = ((now+1)/h.every+1)*h.every - 1
		}
	}
	return true
}
