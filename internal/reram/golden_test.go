package reram

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var updateResident = flag.Bool("update", false, "rewrite testdata/resident.golden from the current store")

// residentModes are the store configurations that change how a prefilled
// row is built: the plain path, the shifting schemes' datapath (Est,
// Hybrid) with unshifted counters, and BLP's per-bitline tracking.
var residentModes = []string{"plain", "shifted", "columns"}

// residentStore returns a store with resident data at the given level and
// seed, configured the way a simulation of the named mode configures it.
func residentStore(t testing.TB, level int, seed uint64, mode string) *Store {
	t.Helper()
	s, err := NewStore(DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	s.SetResident(level, seed)
	s.SetColumnTracking(mode == "columns")
	if mode == "shifted" {
		s.UseShiftedDatapath()
	}
	return s
}

// colState is a mat group's full per-bitline LRS state: 64 mats × 512
// bitlines, bitline slot*8+k holding bit k of every block in the slot.
type colState [BlockSize][BlocksPerRow * 8]uint16

// groupCols reads a mat group's full column state through its per-slot
// counts.
func groupCols(g *colGroup) *colState {
	var cs colState
	for slot := 0; slot < BlocksPerRow; slot++ {
		for mat, ks := range g.slot(slot) {
			for k, c := range ks {
				cs[mat][slot*8+k] = c
			}
		}
	}
	return &cs
}

// residentGoldenKeys are the global rows the golden prefills: strided so
// that several rows share each mat group's column state.
func residentGoldenKeys() []uint64 {
	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = uint64(i) * 97
	}
	return keys
}

// goldenResident renders one line per level and mode: SHA-256 digests of
// the stored data, the per-wordline counters, the unshifted counters and
// the column state of every golden row. newStore builds the store of each
// level and mode.
func goldenResident(t *testing.T, newStore func(level int, mode string) *Store) []byte {
	var out bytes.Buffer
	for level := 1; level <= 3; level++ {
		for _, mode := range residentModes {
			s := newStore(level, mode)
			data, counters, unshifted, cols := sha256.New(), sha256.New(), sha256.New(), sha256.New()
			for _, key := range residentGoldenKeys() {
				s.EnsureRow(key)
				r := s.rows[key]
				for b := 0; b < BlocksPerRow; b++ {
					data.Write(r.block(b)[:])
				}
				_ = binary.Write(counters, binary.LittleEndian, r.counters)
				_ = binary.Write(unshifted, binary.LittleEndian, r.unshifted)
			}
			groups := make([]uint64, 0, len(s.cols))
			for g := range s.cols {
				groups = append(groups, g)
			}
			sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
			for _, g := range groups {
				_ = binary.Write(cols, binary.LittleEndian, g)
				_ = binary.Write(cols, binary.LittleEndian, groupCols(s.cols[g]))
			}
			fmt.Fprintf(&out, "level=%d mode=%s data=%x counters=%x unshifted=%x cols=%x\n",
				level, mode, data.Sum(nil), counters.Sum(nil), unshifted.Sum(nil), cols.Sum(nil))
		}
	}
	return out.Bytes()
}

// residentGoldenSeed is the resident seed of a golden level.
func residentGoldenSeed(level int) uint64 { return 0x5eed + uint64(level) }

// privateGoldenStore builds a golden store that draws its rows privately.
func privateGoldenStore(t *testing.T) func(level int, mode string) *Store {
	return func(level int, mode string) *Store {
		return residentStore(t, level, residentGoldenSeed(level), mode)
	}
}

// readResidentGolden returns the committed golden.
func readResidentGolden(t *testing.T) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "resident.golden"))
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	return want
}

// compareResidentGolden reports every line where got differs from want.
func compareResidentGolden(t *testing.T, got, want []byte) {
	t.Helper()
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("resident rows differ from the golden at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("resident golden has %d lines, want %d", len(gl), len(wl))
	}
}

// TestResidentRowsGolden pins the synthetic resident content and every
// counter built from it. Resident rows feed each simulation's metadata and
// write latencies, so prefill may get faster but must not draw a single
// bit differently. A deliberate change regenerates the file with:
// go test ./internal/reram -run ResidentRowsGolden -update
func TestResidentRowsGolden(t *testing.T) {
	got := goldenResident(t, privateGoldenStore(t))
	if *updateResident {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "resident.golden"), got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	compareResidentGolden(t, got, readResidentGolden(t))
}
