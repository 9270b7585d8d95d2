package core

import (
	"testing"

	"ladder/internal/bits"
	"ladder/internal/reram"
)

// TestHybridDeferredQuarters walks one low-precision line through every
// path a deferred quarter takes, on unshifted level-1 resident rows,
// whose low-precision codes are dense: the fill defers the three
// quarters whose rows the store does not hold; a quarter is filled in
// from its row's image although the store wrote the row since, without
// dirtying the line, into the persisted copy too, so a clean eviction
// and refill keeps it; a deferred quarter survives eviction and refill;
// and the conservative correction after a crash clears what is still
// deferred.
func TestHybridDeferredQuarters(t *testing.T) {
	const level, seed = 1, 11
	env := testEnv(t)
	env.Store.SetResident(level, seed)
	// One set of four ways: four other keys evict the line.
	s, err := NewEstCache(env, false, MetaCacheConfig{SizeBytes: 4 * MetaLineSize, Ways: 4, SpillSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	s.SetLowPrecisionRows(env.Geom.MatRows) // every row low precision

	// eager[q] is quarter q as synthesis from a store holding every
	// covered row, before any write, holds it.
	ref, err := reram.NewStore(env.Geom)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetResident(level, seed)
	key, _ := s.layout.HybridKey(0, 0, 0)
	var eager [4]MetaLine
	var rows [4]uint64
	pages := s.layout.LowGroupLines(key)
	for q := range 4 {
		row, ok := s.quarterRow(key, q)
		if !ok {
			t.Fatalf("quarter %d is past the end of memory", q)
		}
		rows[q] = row
		setQuarter(&eager[q], q, ref.RowCodes(row, true))
		if eager[q] == (MetaLine{}) {
			t.Fatalf("quarter %d's resident codes are all 0: the test could not tell a wrong fill-in", q)
		}
	}
	quarter := func(q int) [16]byte {
		line := s.cache.Data(key)
		if line == nil {
			t.Fatalf("line %#x not cached", key)
		}
		return [16]byte(line[16*q:])
	}
	want := func(q int) [16]byte { return [16]byte(eager[q][16*q:]) }
	// access enqueues a write to quarter q's page, as the controller
	// does, filling the line on a miss, and takes its estimate.
	access := func(q int) *WriteRequest {
		req := newReq(t, env, pages[q], bits.Line{})
		env.Store.EnsureRow(rows[q])
		if aux, _ := s.Enqueue(req); len(aux) == 1 {
			s.MetaArrived(aux[0].Key)
		}
		if !s.Ready(req) || req.MetaKeys[0] != key {
			t.Fatalf("quarter %d: request not ready on key %#x", q, key)
		}
		s.Latency(req)
		return req
	}
	evict := func() {
		for k := uint64(1); k <= 4; k++ {
			if _, ok := s.cache.Reserve(key+k, reram.Location{}); !ok {
				t.Fatal("no evictable way")
			}
		}
		if s.cache.find(key) != nil {
			t.Fatal("line not evicted")
		}
		for k := uint64(1); k <= 4; k++ {
			s.cache.Release(key + k)
		}
	}

	r0 := access(0)
	if got := s.pending[key]; got != 0b1110 {
		t.Fatalf("fill deferred quarters %04b, want 1110", got)
	}
	if quarter(0) != want(0) {
		t.Fatal("quarter 0, whose row the store held, differs from eager synthesis")
	}
	s.release(r0)

	// A write lands on quarter 1's row after the fill: the deferred
	// quarter still stands for the fill's view, the row's image.
	loc, err := env.Geom.Decode(pages[1] + 5)
	if err != nil {
		t.Fatal(err)
	}
	var dense bits.Line
	for i := range dense {
		dense[i] = 0xff
	}
	env.Store.WriteAt(loc, dense)
	r1 := access(1)
	if quarter(1) != want(1) {
		t.Fatal("quarter 1 filled in from the store's later content, not the fill's")
	}
	if s.pending[key] != 0b1100 || s.cache.find(key).dirty {
		t.Fatalf("after filling in quarter 1: deferred %04b, dirty %v; want 1100, clean", s.pending[key], s.cache.find(key).dirty)
	}
	s.release(r1)

	// A clean eviction keeps the filled-in quarter (it reached the
	// persisted copy) and the deferred ones.
	evict()
	r2 := access(2)
	if quarter(1) != want(1) || quarter(2) != want(2) {
		t.Fatal("a quarter differs from eager synthesis after eviction and refill")
	}
	s.Complete(r2, bits.Line{}, r2.Payload)

	// A dirty eviction and a crash: the correction saturates the line,
	// and the quarter still deferred must not be filled in over it.
	evict()
	s.CrashRecover()
	if len(s.pending) != 0 {
		t.Fatalf("%d keys still deferred after the crash", len(s.pending))
	}
	access(3)
	max := maxMetaLine()
	if got := quarter(3); got != [16]byte(max[:]) {
		t.Fatalf("quarter 3 after the crash is %x, want the conservative maximum", got)
	}
}
