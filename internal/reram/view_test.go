package reram

import (
	"fmt"
	mbits "math/bits"
	"math/rand"
	"sync"
	"testing"

	"ladder/internal/bits"
)

// fullRow is the reference model's row: a private copy of all 64 stored
// blocks.
type fullRow struct {
	data   [BlocksPerRow]bits.Line
	writes uint64
}

// fullStore is the reference a store's row views are checked against: it
// keeps a full private copy of every touched row and derives every read
// from the stored bits, with no incremental state.
type fullStore struct {
	geom        Geometry
	level       int
	seed        uint64
	shifted     bool
	cols        bool
	rows        map[uint64]*fullRow
	totalWrites uint64
}

func newFullStore(geom Geometry, level int, seed uint64, mode string) *fullStore {
	return &fullStore{geom: geom, level: level, seed: seed, shifted: mode == "shifted",
		cols: mode == "columns", rows: map[uint64]*fullRow{}}
}

// ensure materializes a row: drawn, then shifted in a shifted store.
func (f *fullStore) ensure(key uint64) *fullRow {
	if r := f.rows[key]; r != nil {
		return r
	}
	r := new(fullRow)
	if f.level > 0 {
		drawRow(&r.data, f.level, f.seed, key)
	}
	if f.shifted {
		for b := range r.data {
			bits.Shift(&r.data[b], b)
		}
	}
	f.rows[key] = r
	return r
}

func (f *fullStore) write(key uint64, slot int, data bits.Line) bits.Line {
	r := f.ensure(key)
	old := r.data[slot]
	r.data[slot] = data
	r.writes++
	f.totalWrites++
	return old
}

// counters recounts a row's wordlines, over the reverse-shifted layout
// when raw is set.
func (f *fullStore) counters(key uint64, raw bool) [BlockSize]uint16 {
	var out [BlockSize]uint16
	r := f.rows[key]
	if r == nil {
		return out
	}
	for b, blk := range r.data {
		if raw {
			blk = bits.Unshifted(blk, b)
		}
		for m, c := range blk {
			out[m] += uint16(mbits.OnesCount8(c))
		}
	}
	return out
}

func maxCounter(cs [BlockSize]uint16) int {
	m := 0
	for _, c := range cs {
		if int(c) > m {
			m = int(c)
		}
	}
	return m
}

// maxSelectedCol recounts the bitlines a slot selects over every touched
// row of the mat group.
func (f *fullStore) maxSelectedCol(key uint64, slot int) int {
	if !f.cols {
		return 0
	}
	var cs slotCols
	group := key / uint64(f.geom.MatRows)
	for k, r := range f.rows {
		if k/uint64(f.geom.MatRows) == group {
			for m, c := range r.data[slot] {
				for i := 0; i < 8; i++ {
					cs[m][i] += uint16(c >> i & 1)
				}
			}
		}
	}
	m := 0
	for _, mat := range cs {
		for _, c := range mat {
			if int(c) > m {
				m = int(c)
			}
		}
	}
	return m
}

func (f *fullStore) codes(key uint64, low bool) [BlocksPerRow]uint8 {
	var out [BlocksPerRow]uint8
	r := f.ensure(key)
	for b := range r.data {
		if low {
			out[b] = bits.EncodeLowPrecision(&r.data[b])
		} else {
			out[b] = bits.EncodePartial(&r.data[b])
		}
	}
	return out
}

// compareReads checks every read API of s on one row and slot against
// the reference.
func compareReads(s *Store, f *fullStore, key uint64, slot int) error {
	loc := s.geom.RowLocation(key)
	loc.Slot = slot
	var want bits.Line
	if r := f.rows[key]; r != nil {
		want = r.data[slot]
	}
	if s.Read(loc) != want {
		return fmt.Errorf("Read(row %d slot %d) differs", key, slot)
	}
	wantCounters := f.counters(key, false)
	if s.RowCounters(key) != wantCounters {
		return fmt.Errorf("RowCounters(row %d) differs", key)
	}
	if s.RecountRow(key) != wantCounters {
		return fmt.Errorf("RecountRow(row %d) differs", key)
	}
	if m := s.MaxRowCounter(key); m != maxCounter(wantCounters) {
		return fmt.Errorf("MaxRowCounter(row %d) = %d, want %d", key, m, maxCounter(wantCounters))
	}
	mu := s.MaxRowCounterUnshifted(key)
	if want := maxCounter(f.counters(key, true)); mu != want {
		return fmt.Errorf("MaxRowCounterUnshifted(row %d) = %d, want %d", key, mu, want)
	}
	mc := s.MaxSelectedColCount(loc)
	if want := f.maxSelectedCol(key, slot); mc != want {
		return fmt.Errorf("MaxSelectedColCount(row %d slot %d) = %d, want %d", key, slot, mc, want)
	}
	var wantWrites uint64
	if r := f.rows[key]; r != nil {
		wantWrites = r.writes
	}
	if w := s.RowWrites(key); w != wantWrites {
		return fmt.Errorf("RowWrites(row %d) = %d, want %d", key, w, wantWrites)
	}
	return nil
}

// runViewDifferential drives one store and its reference through random
// interleaved writes, row materializations, code requests and reads over
// keys, comparing every answer.
func runViewDifferential(s *Store, f *fullStore, keys []uint64, seed int64, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	randLine := func() bits.Line {
		var l bits.Line
		ands := rng.Intn(3)
		for i := range l {
			b := byte(rng.Intn(256))
			for k := 0; k < ands; k++ {
				b &= byte(rng.Intn(256))
			}
			l[i] = b
		}
		return l
	}
	for step := 0; step < steps; step++ {
		key := keys[rng.Intn(len(keys))]
		slot := rng.Intn(BlocksPerRow)
		if rng.Intn(2) == 0 {
			// Favour a few slots, so their column counts exist before
			// most rows of a group are materialized.
			slot = rng.Intn(4)
		}
		loc := s.geom.RowLocation(key)
		loc.Slot = slot
		switch op := rng.Intn(10); {
		case op < 5:
			data := randLine()
			if rng.Intn(4) == 0 {
				// Rewrite the stored block unchanged, or with one bit
				// flipped.
				data = s.Read(loc)
				data[rng.Intn(BlockSize)] ^= byte(rng.Intn(2)) << rng.Intn(8)
			}
			var old bits.Line
			if rng.Intn(2) == 0 {
				old = s.WriteAt(loc, data)
			} else {
				// The line-keyed adapter must be the same write.
				var err error
				if old, err = s.Write(s.geom.Encode(loc), data); err != nil {
					return err
				}
			}
			if want := f.write(key, slot, data); old != want {
				return fmt.Errorf("step %d: Write(row %d slot %d) returned a different old block", step, key, slot)
			}
		case op < 6:
			s.EnsureRow(key)
			f.ensure(key)
		case op < 7:
			low := rng.Intn(2) == 0
			if s.RowCodes(key, low) != f.codes(key, low) {
				return fmt.Errorf("step %d: RowCodes(row %d, low=%v) differs", step, key, low)
			}
		default:
			if err := compareReads(s, f, key, slot); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
		}
	}
	for _, key := range keys {
		for slot := 0; slot < BlocksPerRow; slot++ {
			if err := compareReads(s, f, key, slot); err != nil {
				return fmt.Errorf("final: %w", err)
			}
		}
	}
	if s.TotalWrites() != f.totalWrites {
		return fmt.Errorf("TotalWrites %d, want %d", s.TotalWrites(), f.totalWrites)
	}
	return nil
}

// TestRowViewsMatchFullCopies runs plain, shifted and columns stores that
// share one Resident concurrently, each with random writes, row
// materializations and code requests interleaved with reads, and requires
// every read API to answer what a store keeping full private row copies
// answers. The shared images must afterwards equal freshly built ones.
func TestRowViewsMatchFullCopies(t *testing.T) {
	const (
		level = 2
		seed  = 0xd1ff
		steps = 3000
	)
	geom := DefaultGeometry()
	// 96 rows in three mat groups, so column counts aggregate many rows
	// and rows keep materializing late into the run.
	var keys []uint64
	for _, g := range []uint64{0, 1, 7} {
		for i := uint64(0); i < 32; i++ {
			keys = append(keys, g*uint64(geom.MatRows)+i*13)
		}
	}
	shared := NewResident(level, seed)
	errs := make([]error, len(residentModes))
	var wg sync.WaitGroup
	for i, mode := range residentModes {
		s := residentStore(t, level, seed, mode)
		s.UseResident(shared)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = runViewDifferential(s, newFullStore(geom, level, seed, mode), keys, int64(i+1), steps)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("%s store: %v", residentModes[i], err)
		}
	}
	fresh := NewResident(level, seed)
	for k := range shared.images {
		fresh.image(k.row, k.shifted)
	}
	if imagesDigest(shared) != imagesDigest(fresh) {
		t.Fatal("shared images differ from freshly built ones after the stores wrote through their views")
	}
}

// TestPrivateRowViewsMatchFullCopies runs the same differential on stores
// whose private Resident retains nothing, with no resident data at all,
// and with resident data under column tracking.
func TestPrivateRowViewsMatchFullCopies(t *testing.T) {
	for _, mode := range residentModes {
		t.Run(mode, func(t *testing.T) {
			s := residentStore(t, 3, 0xabc, mode)
			keys := []uint64{0, 5, 9, 600, 601}
			if err := runViewDifferential(s, newFullStore(s.geom, 3, 0xabc, mode), keys, 11, 1500); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("no-resident", func(t *testing.T) {
		s, err := NewStore(DefaultGeometry())
		if err != nil {
			t.Fatal(err)
		}
		f := newFullStore(s.geom, 0, 0, "columns")
		if err := runViewDifferential(s, f, []uint64{0, 3, 700}, 12, 1500); err != nil {
			t.Fatal(err)
		}
	})
}
