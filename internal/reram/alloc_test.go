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
			line := s.geom.RowBaseLine(key)
			// Warm up: build the image, the rows map and the mat group.
			if err := s.EnsureRow(line); err != nil {
				t.Fatal(err)
			}
			if _, err := s.MaxSelectedColCount(line); err != nil {
				t.Fatal(err)
			}
			drop := func() {
				delete(s.rows, key)
				if g := s.cols[key/uint64(s.geom.MatRows)]; g != nil {
					g.rows = g.rows[:0]
				}
			}
			drop()
			if n := testing.AllocsPerRun(100, func() {
				if err := s.EnsureRow(line); err != nil {
					t.Fatal(err)
				}
				drop()
			}); n != 1 {
				t.Errorf("EnsureRow of an imaged row allocates %.0f per call, want 1 (the view)", n)
			}

			var data bits.Line
			data[0] = 0x5a
			if err := s.EnsureRow(line); err != nil {
				t.Fatal(err)
			}
			r := s.rows[key]
			if n := testing.AllocsPerRun(100, func() {
				if _, err := s.Write(line, data); err != nil {
					t.Fatal(err)
				}
				r.own[0] = nil
			}); n != 1 {
				t.Errorf("a block's first write allocates %.0f per call, want 1 (the block)", n)
			}
			if n := testing.AllocsPerRun(100, func() {
				data[1]++
				if _, err := s.Write(line, data); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("rewriting a written block allocates %.0f per call, want 0", n)
			}
		})
	}
}
