// Package recycle holds the pools through which a finished run hands
// its storage to the next one: a store's row views and written blocks,
// a controller's requests and queues, a metadata cache's sets, a
// Resident's images and a tape's chunks. Reuse never shows in results:
// whoever takes a value from a pool resets it fully before use.
package recycle

import (
	"sync"
	"sync/atomic"
)

// Pool is a typed sync.Pool: the garbage collector frees values that
// wait in it across two collections, so storage no run takes again does
// not stay live. It is safe for concurrent use.
type Pool[T any] struct {
	pool atomic.Pointer[sync.Pool]
}

// pools holds every Pool, for Drop.
var (
	poolsMu sync.Mutex
	pools   []interface{ drop() }
)

// NewPool returns an empty pool.
func NewPool[T any]() *Pool[T] {
	p := new(Pool[T])
	p.drop()
	poolsMu.Lock()
	pools = append(pools, p)
	poolsMu.Unlock()
	return p
}

// Get returns a released value, or a new zero one when the pool has
// none. A released value holds whatever its last user left in it.
func (p *Pool[T]) Get() *T {
	if x, ok := p.pool.Load().Get().(*T); ok {
		return x
	}
	return new(T)
}

// Put releases x for a later Get. The caller must not use x again.
func (p *Pool[T]) Put(x *T) { p.pool.Load().Put(x) }

func (p *Pool[T]) drop() { p.pool.Store(new(sync.Pool)) }

// Drop empties every pool, so the next runs allocate their storage
// afresh: a benchmark timing a cold run calls it, as does a long-lived
// process freeing what finished runs left behind.
func Drop() {
	poolsMu.Lock()
	defer poolsMu.Unlock()
	for _, p := range pools {
		p.drop()
	}
}
