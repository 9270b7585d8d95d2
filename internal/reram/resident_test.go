package reram

import (
	"crypto/sha256"
	"sync"
	"testing"

	"ladder/internal/bits"
)

// sharedGoldenStore builds golden stores that take their rows from one
// shared Resident per level, so the plain, shifted and columns stores of a
// level draw each row once between them.
func sharedGoldenStore(t *testing.T) func(level int, mode string) *Store {
	shared := map[int]*Resident{}
	return func(level int, mode string) *Store {
		r := shared[level]
		if r == nil {
			r = NewResident(level, residentGoldenSeed(level))
			shared[level] = r
		}
		s := residentStore(t, level, residentGoldenSeed(level), mode)
		s.UseResident(r)
		return s
	}
}

// TestSharedResidentRowsGolden: stores sharing one Resident build exactly
// the rows and counters of stores that draw privately.
func TestSharedResidentRowsGolden(t *testing.T) {
	compareResidentGolden(t, goldenResident(t, sharedGoldenStore(t)), readResidentGolden(t))
}

// rowsDigest hashes the rows of the golden keys.
func rowsDigest(row func(key uint64) *[BlocksPerRow]bits.Line) [sha256.Size]byte {
	h := sha256.New()
	for _, key := range residentGoldenKeys() {
		for _, blk := range row(key) {
			h.Write(blk[:])
		}
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// TestSharedResidentRowsImmutable: stores that transform, count and
// overwrite their copies leave the shared rows as drawn. The plain store
// stores rows untransformed, so its rows are the drawn rows.
func TestSharedResidentRowsImmutable(t *testing.T) {
	var ones bits.Line
	for i := range ones {
		ones[i] = 0xff
	}
	for level := 1; level <= 3; level++ {
		plain := residentStore(t, level, residentGoldenSeed(level), "plain")
		want := rowsDigest(func(key uint64) *[BlocksPerRow]bits.Line { return &plain.ensure(key).data })
		shared := NewResident(level, residentGoldenSeed(level))
		for _, mode := range []string{"shifted", "columns"} {
			s := residentStore(t, level, residentGoldenSeed(level), mode)
			s.UseResident(shared)
			for _, key := range residentGoldenKeys() {
				loc := s.geom.RowLocation(key)
				for slot := 0; slot < BlocksPerRow; slot++ {
					loc.Slot = slot
					if _, err := s.Write(s.geom.Encode(loc), ones); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := rowsDigest(shared.row); got != want {
				t.Fatalf("level %d: shared rows changed after the %s store wrote them: digest %x, drawn %x", level, mode, got, want)
			}
		}
	}
}

// TestResidentRowConcurrent has many goroutines request the same rows of
// one Resident in different orders: every caller sees the content drawRow
// produces, and each key is retained once. Under -race it also checks the
// locking.
func TestResidentRowConcurrent(t *testing.T) {
	const (
		workers = 8
		keys    = 64
	)
	r := NewResident(2, 0x5eed)
	got := make([][keys]*[BlocksPerRow]bits.Line, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := (i + w*keys/workers) % keys
				got[w][k] = r.row(uint64(k))
			}
		}(w)
	}
	wg.Wait()
	if len(r.rows) != keys {
		t.Fatalf("resident retains %d rows, want %d", len(r.rows), keys)
	}
	for k := 0; k < keys; k++ {
		var want [BlocksPerRow]bits.Line
		drawRow(&want, 2, 0x5eed, uint64(k))
		for w := 0; w < workers; w++ {
			if *got[w][k] != want {
				t.Fatalf("worker %d: row %d differs from a direct draw", w, k)
			}
		}
	}
}

// TestSetResidentIsPrivate: a store configured with SetResident draws each
// row into the store and retains nothing beside it.
func TestSetResidentIsPrivate(t *testing.T) {
	s := residentStore(t, 2, 7, "plain")
	if err := s.EnsureRow(0); err != nil {
		t.Fatal(err)
	}
	if s.resident.rows != nil {
		t.Fatal("SetResident built a retaining Resident")
	}
	if s.SetResident(0, 7); s.resident != nil {
		t.Fatal("level 0 should disable resident data")
	}
	if NewResident(0, 7) != nil || NewResident(-1, 7) != nil {
		t.Fatal("NewResident should return nil for level <= 0")
	}
}
