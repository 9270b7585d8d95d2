package reram

import (
	"math/rand"
	"testing"

	"ladder/internal/bits"
)

// BenchmarkStoreEnsureRow times the first touch of one wordline group with
// level-2 resident data (the simulator's default), per store configuration:
// plain, the shifting schemes' datapath with unshifted counters, and BLP's
// column tracking. One op is one materialized row. The plain, shifted and
// columns cases build every row's image (a solo run); the -shared cases
// view images a shared Resident already holds (a grid cell after the
// seed's first cell built them), so the gap between the two is what
// sharing saves.
func BenchmarkStoreEnsureRow(b *testing.B) {
	for _, mode := range residentModes {
		for _, shared := range []bool{false, true} {
			name := mode
			if shared {
				name += "-shared"
			}
			b.Run(name, func(b *testing.B) {
				s := residentStore(b, 2, 1, mode)
				// Keys cycle through 64 mat groups: the column state of
				// those groups stays allocated.
				keys := 64 * uint64(s.geom.MatRows)
				if shared {
					// 256 retained images (1 MB) are reused from cache.
					keys = 256
					r := NewResident(2, 1)
					for k := uint64(0); k < keys; k++ {
						r.image(k, mode == "shifted")
					}
					s.UseResident(r)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Dropping the row, and its entry in its mat group's
					// row list, keeps memory flat.
					key := uint64(i) % keys
					s.ensure(key)
					delete(s.rows, key)
					if g := s.cols[key/uint64(s.geom.MatRows)]; g != nil {
						g.rows = g.rows[:0]
					}
				}
			})
		}
	}
}

// BenchmarkStoreWrite times one block write into already-resident rows,
// per store configuration. One op is one Write call.
func BenchmarkStoreWrite(b *testing.B) {
	const rows = 64
	rng := rand.New(rand.NewSource(1))
	data := make([]bits.Line, 1024)
	for i := range data {
		for j := range data[i] {
			// About 0.25 ones density: a byte ANDs two uniform draws.
			data[i][j] = byte(rng.Intn(256) & rng.Intn(256))
		}
	}
	geom := DefaultGeometry()
	locs := make([]Location, len(data))
	for i := range locs {
		var err error
		if locs[i], err = geom.Decode(uint64(rng.Intn(rows * BlocksPerRow))); err != nil {
			b.Fatal(err)
		}
	}
	for _, mode := range residentModes {
		b.Run(mode, func(b *testing.B) {
			s := residentStore(b, 2, 1, mode)
			for _, loc := range locs {
				s.EnsureRow(geom.GlobalRow(loc))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(data)
				s.WriteAt(locs[j], data[j])
			}
		})
	}
}
