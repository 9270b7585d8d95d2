// Package cpu models the processor side of the simulation: trace-driven
// cores that retire one instruction per cycle until they block on memory.
// A core issues demand reads into the memory system up to its
// memory-level-parallelism window and stalls when the window is full (the
// out-of-order ROB-limit abstraction); writebacks are fire-and-forget
// unless the write queue rejects them. This reproduces the mechanism the
// paper exploits — long ReRAM writes occupying banks and delaying reads —
// without simulating a full pipeline.
package cpu

import (
	"errors"

	"ladder/internal/engine"
	"ladder/internal/trace"
)

// DefaultMLP is the default number of outstanding demand reads a core
// tolerates before stalling — the ROB-limit abstraction: a modest window
// means long ReRAM accesses are only partially hidden, as in the paper's
// out-of-order cores.
const DefaultMLP = 4

// IssueFunc attempts to hand an access to the memory system and reports
// whether it was accepted (queues may be full).
type IssueFunc func(coreID int, a trace.Access) bool

// Core is one trace-driven processor core.
type Core struct {
	id  int
	gen trace.Source
	mlp int

	outstanding int
	pending     trace.Access
	gapLeft     int
	retired     uint64
	// stalled records whether the most recent Tick failed to retire: a
	// stalled core cannot make progress until the memory system changes
	// state, so the event engine parks it (NextEventAt = Horizon) until
	// controller activity forces the next cycle to be processed.
	stalled bool
}

// NewCore builds a core over any access source (a synthetic generator or
// a recorded-trace replayer).
func NewCore(id int, gen trace.Source, mlp int) (*Core, error) {
	if gen == nil {
		return nil, errors.New("cpu: nil generator")
	}
	if mlp <= 0 {
		mlp = DefaultMLP
	}
	c := &Core{id: id, gen: gen, mlp: mlp}
	c.fetch()
	return c, nil
}

// fetch pulls the next access from the trace.
func (c *Core) fetch() {
	c.pending = c.gen.Next()
	c.gapLeft = c.pending.Gap
}

// Retired returns the number of instructions retired.
func (c *Core) Retired() uint64 { return c.retired }

// Stalled reports whether the most recent Tick failed to retire (stall
// attribution for the tracing layer).
func (c *Core) Stalled() bool { return c.stalled }

// Outstanding returns the current number of in-flight demand reads.
func (c *Core) Outstanding() int { return c.outstanding }

// ReadDone signals completion of one demand read.
func (c *Core) ReadDone() {
	if c.outstanding <= 0 {
		panic("cpu: read completion without outstanding read")
	}
	c.outstanding--
}

// Tick advances the core one cycle. It retires at most one instruction:
// a plain instruction if the gap to the next access is open, otherwise
// the memory access itself if it can be issued. Returns whether an
// instruction retired.
func (c *Core) Tick(issue IssueFunc) bool {
	if c.gapLeft > 0 {
		c.gapLeft--
		c.retired++
		c.stalled = false
		return true
	}
	a := &c.pending
	if !a.Write {
		if c.outstanding >= c.mlp {
			c.stalled = true
			return false
		}
		if !issue(c.id, *a) {
			c.stalled = true
			return false
		}
		c.outstanding++
		c.retired++
		c.stalled = false
		c.fetch()
		return true
	}
	if !issue(c.id, *a) {
		c.stalled = true
		return false
	}
	c.retired++
	c.stalled = false
	c.fetch()
	return true
}

// Skip advances the core through `cycles` cycles in bulk, for the event
// engine's dead-cycle jumps. A core inside an instruction gap retires
// one instruction per skipped cycle (memory-free progress); a core at a
// memory-access boundary would have stalled every one of those cycles
// (the engine only skips cycles in which the memory system provably
// cannot have changed). The caller must not skip across the gap's end or
// the instruction budget — the engine's NextEventAt contract guarantees
// both.
func (c *Core) Skip(cycles uint64) {
	if cycles == 0 {
		return
	}
	if c.gapLeft > 0 {
		if uint64(c.gapLeft) <= cycles {
			panic("cpu: Skip across a memory-access boundary")
		}
		c.gapLeft -= int(cycles)
		c.retired += cycles
		c.stalled = false
	}
}

// NextEventAt returns the next cycle strictly after now at which this
// core's Tick is not predictable without consulting the memory system:
// the end of its instruction gap, the cycle it exhausts `budget` retired
// instructions, or now+1 when it sits at an unattempted access boundary.
// A stalled core returns engine.Horizon — it can only be unblocked by
// controller activity, which the engine reacts to on its own.
func (c *Core) NextEventAt(now, budget uint64) uint64 {
	if c.retired >= budget {
		return engine.Horizon
	}
	if c.gapLeft > 0 {
		d := uint64(c.gapLeft)
		if r := budget - c.retired; r < d {
			d = r
		}
		return now + d
	}
	if c.stalled {
		return engine.Horizon
	}
	return now + 1
}
