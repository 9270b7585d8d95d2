//go:build !race

package reram

import (
	"testing"

	"ladder/internal/bits"
)

// A grid cell touches each row it needs once and writes a few of its
// blocks, so these tests pin what that costs once a shared Resident
// holds the row's image: materializing the row allocates its view, a
// block's first write allocates the block, and later writes allocate
// nothing. The race detector instruments allocations, so the file is
// excluded under -race.

func TestStoreViewAllocs(t *testing.T) {
	for _, mode := range residentModes {
		t.Run(mode, func(t *testing.T) {
			s := residentStore(t, 2, 1, mode)
			s.UseResident(NewResident(2, 1))
			const key = 3
			loc := s.geom.RowLocation(key)
			// Warm up: build the image, the rows map and the mat group.
			s.EnsureRow(key)
			s.MaxSelectedColCount(loc)
			drop := func() {
				delete(s.rows, key)
				if g := s.cols[key/uint64(s.geom.MatRows)]; g != nil {
					g.rows = g.rows[:0]
				}
			}
			drop()
			if n := testing.AllocsPerRun(100, func() {
				s.EnsureRow(key)
				drop()
			}); n != 1 {
				t.Errorf("EnsureRow of an imaged row allocates %.0f per call, want 1 (the view)", n)
			}

			var data bits.Line
			data[0] = 0x5a
			s.EnsureRow(key)
			r := s.rows[key]
			if n := testing.AllocsPerRun(100, func() {
				s.WriteAt(loc, data)
				r.own[0] = nil
			}); n != 1 {
				t.Errorf("a block's first write allocates %.0f per call, want 1 (the block)", n)
			}
			if n := testing.AllocsPerRun(100, func() {
				data[1]++
				s.WriteAt(loc, data)
			}); n != 0 {
				t.Errorf("rewriting a written block allocates %.0f per call, want 0", n)
			}
		})
	}
}
