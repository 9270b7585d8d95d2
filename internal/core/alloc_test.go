//go:build !race

package core

import (
	"runtime"
	"testing"

	"ladder/internal/reram"
)

// TestMetaCacheAllocLazySets pins the metadata cache's lazy sets: a
// fresh default cache holds only its set index (256 nil sets) and an
// empty backing map, so building one per scheme instance costs well
// under the 160 KB its 1024 ways would take; a lookup in an untouched
// set allocates nothing, and the first Reserve builds just that set. A
// cache built on a recycled cache's storage allocates only itself.
// The race detector instruments allocations, so the file is excluded
// under -race.
func TestMetaCacheAllocLazySets(t *testing.T) {
	const n = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		if _, err := NewMetaCache(DefaultMetaCacheConfig()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / n; got >= 16<<10 {
		t.Errorf("a fresh default cache allocates %d B, want under 16 KB", got)
	}

	c, err := NewMetaCache(DefaultMetaCacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { c.Lookup(42) }); n != 0 {
		t.Errorf("Lookup in an untouched set allocates %.0f per call, want 0", n)
	}
	c.Reserve(42, reram.Location{})
	built := 0
	for _, set := range c.sets {
		if set != nil {
			built++
		}
	}
	if built != 1 {
		t.Errorf("%d sets built after one Reserve, want 1", built)
	}

	// A cache built on recycled storage reuses the set index, the built
	// sets and the backing map: building one and filling a line costs
	// the cache itself.
	init := func(uint64) MetaLine { return MetaLine{1} }
	c.Recycle()
	if n := testing.AllocsPerRun(100, func() {
		c, err := NewMetaCache(DefaultMetaCacheConfig())
		if err != nil {
			t.Fatal(err)
		}
		c.SetInitializer(init)
		c.Reserve(42, reram.Location{})
		c.Fill(42)
		c.Recycle()
	}); n != 1 {
		t.Errorf("a cache on recycled storage allocates %.0f per build, Reserve and Fill, want 1 (the cache)", n)
	}
}
