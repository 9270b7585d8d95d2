package reram

import (
	"math/rand"
	"reflect"
	"testing"

	"ladder/internal/bits"
	"ladder/internal/recycle"
)

// storeDigest is everything a store answers about the rows it was
// driven over: every block as stored and as written, the counters, the
// codes, the write counts and, with column tracking, every slot's
// worst bitline.
type storeDigest struct {
	blocks, logical []bits.Line
	counters        [][BlockSize]uint16
	codes           [][BlocksPerRow]uint8
	maxes           []int
	rowWrites       []uint64
	cols            []int
	total, maxRow   uint64
	touched         int
}

// driveStore writes random content and flip masks into rows of s (the
// same for a given seed) and digests the result.
func driveStore(s *Store, seed int64, keys []uint64) storeDigest {
	rng := rand.New(rand.NewSource(seed))
	for range 4 * len(keys) {
		loc := s.geom.RowLocation(keys[rng.Intn(len(keys))])
		loc.Slot = rng.Intn(BlocksPerRow)
		var data bits.Line
		rng.Read(data[:])
		s.WriteFNW(loc, data, uint8(rng.Intn(256)))
	}
	var d storeDigest
	for _, key := range keys {
		loc := s.geom.RowLocation(key)
		for slot := 0; slot < BlocksPerRow; slot++ {
			loc.Slot = slot
			d.blocks = append(d.blocks, s.Read(loc))
			d.logical = append(d.logical, s.ReadLogical(loc))
			if s.trackCols {
				d.cols = append(d.cols, s.MaxSelectedColCount(loc))
			}
		}
		d.counters = append(d.counters, s.RowCounters(key))
		d.codes = append(d.codes, s.RowCodes(key, false), s.RowCodes(key, true))
		d.maxes = append(d.maxes, s.MaxRowCounter(key), s.MaxRowCounterUnshifted(key))
		d.rowWrites = append(d.rowWrites, s.RowWrites(key))
	}
	d.total, d.maxRow, d.touched = s.TotalWrites(), s.MaxRowWrites(), s.TouchedRows()
	return d
}

// TestRecycledStoreMemoryIsReset drives a store of each mode on memory
// another store of another mode, seed and resident level recycled after
// writing other rows, and requires the answers of the same store built
// on fresh memory.
func TestRecycledStoreMemoryIsReset(t *testing.T) {
	keys := []uint64{0, 1, 2, 511, 512, 9000, 70000}
	other := []uint64{1, 3, 512, 513, 9000, 123456}
	for _, mode := range residentModes {
		t.Run(mode, func(t *testing.T) {
			recycle.Drop()
			cold := residentStore(t, 2, 7, mode)
			cold.UseResident(NewResident(2, 7))
			want := driveStore(cold, 1, keys)

			for _, dirty := range residentModes {
				prev := residentStore(t, 1, 9, dirty)
				prev.UseResident(NewResident(1, 9))
				driveStore(prev, 2, other)
				s := configure(newStore(DefaultGeometry(), prev.takeMemory()), 2, 7, mode)
				s.UseResident(NewResident(2, 7))
				if got := driveStore(s, 1, keys); !reflect.DeepEqual(got, want) {
					t.Fatalf("a %s store on memory a %s store recycled answers differently from one on fresh memory", mode, dirty)
				}
				s.Recycle()
			}
		})
	}
}

// TestRecycledStorePanics: a recycled store fails loudly on every row
// access rather than reading or writing memory another store now owns.
func TestRecycledStorePanics(t *testing.T) {
	s, err := NewStore(DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	loc := s.geom.RowLocation(3)
	s.WriteAt(loc, bits.Line{1})
	s.Recycle()
	for name, access := range map[string]func(){
		"Read":                func() { s.Read(loc) },
		"WriteAt":             func() { s.WriteAt(loc, bits.Line{2}) },
		"EnsureRow":           func() { s.EnsureRow(7) },
		"MaxSelectedColCount": func() { s.MaxSelectedColCount(loc) },
	} {
		func() {
			defer func() {
				if r := recover(); r != errRecycled {
					t.Errorf("%s on a recycled store: recovered %v, want %q", name, r, errRecycled)
				}
			}()
			access()
		}()
	}
	s.Recycle() // a second Recycle is a no-op
}

// TestRecycledImagesRebuildExactly recycles a Resident whose images were
// built and requested in both forms (codes encoded), and requires a
// Resident of another seed, building on those images, to retain exactly
// what a Resident on fresh images does.
func TestRecycledImagesRebuildExactly(t *testing.T) {
	build := func(r *Resident) {
		for _, key := range residentGoldenKeys() {
			for _, shifted := range []bool{false, true} {
				img := r.image(key, shifted)
				img.blockCodes(false)
			}
		}
	}
	recycle.Drop()
	cold := NewResident(3, 11)
	build(cold)
	want := imagesDigest(cold)

	prev := NewResident(1, 5)
	build(prev)
	prev.Recycle()
	if prev.images != nil {
		t.Fatal("Recycle kept the Resident's images")
	}
	warm := NewResident(3, 11)
	build(warm)
	if got := imagesDigest(warm); got != want {
		t.Fatalf("a Resident building on recycled images retains digest %x, want %x", got, want)
	}
}
