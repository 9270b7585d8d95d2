package reram

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
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

// imagesDigest hashes every image r retains, in key order: blocks,
// counters, unshifted counters and codes.
func imagesDigest(r *Resident) [sha256.Size]byte {
	keys := make([]imageKey, 0, len(r.images))
	for k := range r.images {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].row != keys[j].row {
			return keys[i].row < keys[j].row
		}
		return !keys[i].shifted && keys[j].shifted
	})
	h := sha256.New()
	for _, k := range keys {
		img := r.images[k].img
		_ = binary.Write(h, binary.LittleEndian, k)
		_ = binary.Write(h, binary.LittleEndian, img.data)
		_ = binary.Write(h, binary.LittleEndian, img.counters)
		_ = binary.Write(h, binary.LittleEndian, img.unshifted)
		_ = binary.Write(h, binary.LittleEndian, img.blockCodes(false))
		_ = binary.Write(h, binary.LittleEndian, img.blockCodes(true))
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// TestSharedResidentRowsImmutable: stores that overwrite every block of
// their views leave the shared images as built, and the raw images hold
// the rows a private store draws.
func TestSharedResidentRowsImmutable(t *testing.T) {
	var ones bits.Line
	for i := range ones {
		ones[i] = 0xff
	}
	for level := 1; level <= 3; level++ {
		plain := residentStore(t, level, residentGoldenSeed(level), "plain")
		shared := NewResident(level, residentGoldenSeed(level))
		var stores []*Store
		for _, mode := range residentModes {
			s := residentStore(t, level, residentGoldenSeed(level), mode)
			s.UseResident(shared)
			for _, key := range residentGoldenKeys() {
				s.ensure(key)
			}
			stores = append(stores, s)
		}
		for _, key := range residentGoldenKeys() {
			r := plain.ensure(key)
			for b := 0; b < BlocksPerRow; b++ {
				if *r.block(b) != shared.images[imageKey{key, false}].img.data[b] {
					t.Fatalf("level %d row %d: shared raw image differs from a private draw", level, key)
				}
			}
		}
		want := imagesDigest(shared)
		for _, s := range stores {
			for _, key := range residentGoldenKeys() {
				loc := s.geom.RowLocation(key)
				for slot := 0; slot < BlocksPerRow; slot++ {
					loc.Slot = slot
					s.WriteAt(loc, ones)
				}
			}
		}
		if got := imagesDigest(shared); got != want {
			t.Fatalf("level %d: shared images changed after stores wrote every block: digest %x, built %x", level, got, want)
		}
	}
}

// TestResidentRowConcurrent has many goroutines request both forms of the
// same rows of one Resident in different orders: every caller gets the
// same image, whose raw form is what drawRow produces and whose shifted
// form is the raw form shifted, and each (row, form) is retained once.
// Under -race it also checks the locking.
func TestResidentRowConcurrent(t *testing.T) {
	const (
		workers = 8
		keys    = 64
	)
	r := NewResident(2, 0x5eed)
	got := make([][keys][2]*image, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := (i + w*keys/workers) % keys
				// Odd workers ask for the shifted form first, so some
				// shifted images build their raw image on the way.
				for f := 0; f < 2; f++ {
					form := (f + w) % 2 // 1 is the shifted form
					got[w][k][form] = r.image(uint64(k), form == 1)
				}
			}
		}(w)
	}
	wg.Wait()
	if len(r.images) != 2*keys {
		t.Fatalf("resident retains %d images, want %d", len(r.images), 2*keys)
	}
	for k := 0; k < keys; k++ {
		var raw [BlocksPerRow]bits.Line
		drawRow(&raw, 2, 0x5eed, uint64(k))
		for w := 0; w < workers; w++ {
			if got[w][k] != got[0][k] {
				t.Fatalf("worker %d: row %d is a different image than worker 0's", w, k)
			}
		}
		for b := range raw {
			if got[0][k][0].data[b] != raw[b] || got[0][k][1].data[b] != bits.Shifted(raw[b], b) {
				t.Fatalf("row %d block %d differs from a direct draw", k, b)
			}
		}
	}
}

// TestSetResidentIsPrivate: a store configured with SetResident builds
// each row for its own view and retains nothing beside it.
func TestSetResidentIsPrivate(t *testing.T) {
	s := residentStore(t, 2, 7, "plain")
	s.EnsureRow(0)
	if s.resident.images != nil {
		t.Fatal("SetResident built a retaining Resident")
	}
	if s.SetResident(0, 7); s.resident != nil {
		t.Fatal("level 0 should disable resident data")
	}
	if NewResident(0, 7) != nil || NewResident(-1, 7) != nil {
		t.Fatal("NewResident should return nil for level <= 0")
	}
}
