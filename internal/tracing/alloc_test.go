//go:build !race

package tracing

import (
	"io"
	"runtime"
	"testing"
	"unsafe"
)

// TestSpanEmissionAllocFree pins the collector's hot-path contract from
// the package comment: once the ring has grown to its capacity,
// Begin/Dispatch/End allocate nothing — spans overwrite ring slots and
// the slowest-K digest shifts in place instead of walking off its
// backing array. The race detector instruments allocations, so the file
// is excluded under -race.
func TestSpanEmissionAllocFree(t *testing.T) {
	c := NewCollector(Config{SampleEvery: 1, Capacity: 1024, SlowestK: 16})
	// Warm-up: fill the ring and the slowest-K digest so the measured
	// iterations exercise the wrap and eviction paths, not the growth.
	now := uint64(0)
	emit := func() {
		ref := c.Begin(KindDataWrite, 0, 0, -1, 0x40, now)
		c.Dispatch(ref, now+10, 152.5, 3, 2, 4, false)
		// Monotonically slower writes force an insert+evict every time.
		c.End(ref, now+20+now/8)
		now += 32
	}
	for i := 0; i < 1024; i++ {
		emit()
	}
	if n := testing.AllocsPerRun(200, emit); n != 0 {
		t.Fatalf("span emission allocates %.0f per transaction, want 0", n)
	}
}

// TestStallSpanAllocFree covers the read/stall flavor (no digest
// competition) for completeness.
func TestStallSpanAllocFree(t *testing.T) {
	c := NewCollector(Config{SampleEvery: 1, Capacity: 256})
	now := uint64(0)
	stall := func() {
		ref := c.Begin(KindCoreStall, -1, -1, 0, 0, now)
		c.End(ref, now+5)
		now += 8
	}
	for i := 0; i < 256; i++ {
		stall()
	}
	if n := testing.AllocsPerRun(200, stall); n != 0 {
		t.Fatalf("stall span emission allocates %.0f per episode, want 0", n)
	}
}

// TestChromeTraceAllocs pins the export's allocations to a constant per
// export, independent of the number of spans.
func TestChromeTraceAllocs(t *testing.T) {
	small := NewCollector(Config{Capacity: 64})
	lifecycle(small, KindDataWrite, 1, 2, 3)
	big := degradedRing()
	a := testing.AllocsPerRun(5, func() { _ = small.WriteChromeTrace(io.Discard) })
	b := testing.AllocsPerRun(5, func() { _ = big.WriteChromeTrace(io.Discard) })
	if b > a+8 {
		t.Errorf("export allocates %.0f times for a full ring, %.0f for one span; want a constant per export", b, a)
	}
}

// TestCollectorAllocGrowsWithSpans: a collector that records n spans,
// far fewer than its capacity, allocates memory in proportion to n (the
// ring doubles as it fills), not the whole ring up front.
func TestCollectorAllocGrowsWithSpans(t *testing.T) {
	const n = 551 // spans a degraded figure cell samples on average
	spanSize := uint64(unsafe.Sizeof(Span{}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewCollector(Config{SampleEvery: 1})
	for i := uint64(0); i < n; i++ {
		lifecycle(c, KindDataWrite, i, i+1, i+2+i%7)
	}
	runtime.ReadMemStats(&after)
	if got := len(resident(c)); got != n {
		t.Fatalf("resident spans = %d, want %d", got, n)
	}
	// Doubling allocates at most 4n slots in all; the slowest-K digest
	// and the collector itself fit in the 16 KB slack.
	got := after.TotalAlloc - before.TotalAlloc
	if limit := 4*n*spanSize + 16<<10; got > limit {
		t.Errorf("recording %d spans allocated %d bytes, want at most %d (the full %d-span ring is %d bytes)",
			n, got, limit, DefaultCapacity, DefaultCapacity*spanSize)
	}
}

// TestRecentAllocs pins Recent's cost to the spans it returns: on a
// full default ring, Recent(64) makes one allocation of at most 64
// spans, not a copy of the ring.
func TestRecentAllocs(t *testing.T) {
	c := NewCollector(Config{SampleEvery: 1})
	for i := uint64(0); i < DefaultCapacity+100; i++ {
		lifecycle(c, KindDataWrite, i, i+1, i+2)
	}
	if n := testing.AllocsPerRun(20, func() { _ = c.Recent(64) }); n != 1 {
		t.Errorf("Recent(64) allocates %.0f times, want 1", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_ = c.Recent(64)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(unsafe.Sizeof(Span{})); got > limit {
		t.Errorf("Recent(64) allocated %d bytes, want at most %d", got, limit)
	}
}
