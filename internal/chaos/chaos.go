// Package chaos is the in-tree fault-injection harness for robustness
// tests: named failpoints compiled into production code paths that cost
// one atomic load when nothing is armed, and inject errors, panics or
// delays when a test arms them.
//
// A failpoint is a string name at a call site — "service.state.write",
// "service.job.run" — hit via Hit (error injection, delays) or Check
// (pure observation). Tests arm actions against names:
//
//	chaos.Arm("service.state.write", chaos.Action{Err: errDiskFull})
//	defer chaos.Reset()
//
// and the next Hit at that site returns errDiskFull instead of nil. An
// Action can instead Panic (exercising recover paths) or Delay
// (simulating a stalled dependency so watchdogs fire). Times bounds how
// many hits trigger before the failpoint disarms itself, so "fail the
// second write, then heal" scenarios need no test-side choreography.
//
// The registry is global and process-wide, like the failpoint packages
// this models (etcd's gofail, FreeBSD's fail(9)): chaos is for tests
// that own the process. Arm/Disarm/Reset are safe for concurrent use
// with Hit, and Hits reports how many times a site triggered, armed or
// not, so tests can assert a path was actually exercised.
package chaos

import (
	"sync"
	"sync/atomic"
	"time"
)

// Action describes what an armed failpoint does when hit. Exactly the
// set fields apply; a zero Action is a no-op that still counts hits.
type Action struct {
	// Err is returned from Hit (after any Delay).
	Err error
	// Panic, when non-nil, is panicked with from inside Hit — the armed
	// site fails the way a real bug would, stack and all.
	Panic any
	// Delay blocks Hit for the duration before anything else: a slow
	// disk, a stuck scheme, a wedged dependency. Delays do not respond
	// to contexts by design — a genuinely stuck callee would not either.
	Delay time.Duration
	// Times bounds how many hits trigger this action before the
	// failpoint disarms itself (0 = every hit until Disarm).
	Times int
}

// failpoint is one armed site plus its hit accounting.
type failpoint struct {
	act  Action
	left int // remaining triggers when act.Times > 0
}

var reg = struct {
	sync.Mutex
	armed map[string]*failpoint
	hits  map[string]uint64
}{armed: make(map[string]*failpoint), hits: make(map[string]uint64)}

// active is the fast-path gate: zero while nothing is armed, so a Hit
// on the production path is a single atomic load plus a branch.
var active atomic.Int32

// Arm installs an action at a named failpoint, replacing any previous
// action there.
func Arm(name string, a Action) {
	reg.Lock()
	defer reg.Unlock()
	if _, dup := reg.armed[name]; !dup {
		active.Add(1)
	}
	reg.armed[name] = &failpoint{act: a, left: a.Times}
}

// Disarm removes a failpoint's action. Hit counts are preserved.
func Disarm(name string) {
	reg.Lock()
	defer reg.Unlock()
	if _, ok := reg.armed[name]; ok {
		delete(reg.armed, name)
		active.Add(-1)
	}
}

// Reset disarms every failpoint and zeroes all hit counters — the
// deferred cleanup for any test that arms chaos.
func Reset() {
	reg.Lock()
	defer reg.Unlock()
	active.Add(-int32(len(reg.armed)))
	reg.armed = make(map[string]*failpoint)
	reg.hits = make(map[string]uint64)
}

// Hits reports how many times a named site was hit (armed or not).
func Hits(name string) uint64 {
	reg.Lock()
	defer reg.Unlock()
	return reg.hits[name]
}

// Hit marks one pass through a named failpoint. Disarmed — the
// production case — it counts nothing and returns nil at the cost of
// one atomic load. Armed, it counts the hit and applies the action:
// sleep Delay, panic with Panic, or return Err.
func Hit(name string) error {
	if active.Load() == 0 {
		return nil
	}
	reg.Lock()
	reg.hits[name]++
	fp := reg.armed[name]
	if fp == nil {
		reg.Unlock()
		return nil
	}
	act := fp.act
	if act.Times > 0 {
		fp.left--
		if fp.left <= 0 {
			delete(reg.armed, name)
			active.Add(-1)
		}
	}
	reg.Unlock()
	if act.Delay > 0 {
		time.Sleep(act.Delay)
	}
	if act.Panic != nil {
		panic(act.Panic)
	}
	return act.Err
}
