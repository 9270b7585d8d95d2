//go:build !race

package reram

import (
	"runtime"
	"testing"

	"ladder/internal/bits"
)

// A grid cell touches each row it needs once and writes a few of its
// blocks. Once a shared Resident holds the rows' images and an earlier
// store recycled its memory, that costs nothing: materializing a row, a
// block's first write and a bitline readout take their storage from the
// recycled memory, and later writes allocate nothing either. The race
// detector instruments allocations, so the file is excluded under -race.

func TestStoreViewAllocs(t *testing.T) {
	for _, mode := range residentModes {
		t.Run(mode, func(t *testing.T) {
			const rows = 128
			shared := NewResident(2, 1)
			var data bits.Line
			data[0] = 0x5a
			touch := func(s *Store, key uint64) {
				loc := s.geom.RowLocation(key)
				s.EnsureRow(key)
				s.MaxSelectedColCount(loc)
				s.WriteAt(loc, data)
			}
			// Build the images, then give the memory of every row to a
			// new store.
			warm := residentStore(t, 2, 1, mode)
			warm.UseResident(shared)
			for key := range uint64(rows) {
				touch(warm, key)
			}
			// Counted over all the rows, so one chunk of a cold slab
			// shows. The runtime allocates now and then on its own, so
			// the best of three stores, each on the last one's memory,
			// counts.
			s := warm
			least := uint64(1 << 62)
			for range 3 {
				s = configure(newStore(DefaultGeometry(), s.takeMemory()), 2, 1, mode)
				s.UseResident(shared)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for key := range uint64(rows) {
					touch(s, key)
				}
				runtime.ReadMemStats(&after)
				least = min(least, after.Mallocs-before.Mallocs)
			}
			if least != 0 {
				t.Errorf("materializing %d rows and writing a block of each on recycled memory allocates %d times, want 0", rows, least)
			}
			loc := s.geom.RowLocation(0)
			if n := testing.AllocsPerRun(100, func() {
				data[1]++
				s.WriteAt(loc, data)
			}); n != 0 {
				t.Errorf("rewriting a written block allocates %.0f per call, want 0", n)
			}
		})
	}
}
