package reram

import (
	"fmt"
	mbits "math/bits"
	"testing"

	"ladder/internal/bits"
)

// refSplitmix is the heap-held splitmix64 generator the reference prefill
// draws from, one call per draw.
type refSplitmix struct{ x uint64 }

func (s *refSplitmix) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// refHotByte synthesizes one dense byte for the given level.
func refHotByte(rng *refSplitmix, hotDraws int) byte {
	switch hotDraws {
	case 1:
		return byte(rng.next())
	case 2:
		a, b, c := rng.next(), rng.next(), rng.next()
		return byte((a | b) & c)
	default:
		return byte(rng.next() & rng.next())
	}
}

// refRow is a reference prefill's result: the stored blocks and their
// wordline and unshifted counters.
type refRow struct {
	data                [BlocksPerRow]bits.Line
	counters, unshifted [BlockSize]uint16
}

// referencePrefill is resident prefill written the plain way: one byte at
// a time, each stored byte (shifted first for a shifted store) read back
// and counted bit by bit into the wordline, unshifted and column
// counters. drawRow assembles words, and a Resident's images count them
// with SWAR popcounts and derive the shifted form from the raw one; a
// store's view of an image must agree with this bit for bit, and drawRow
// must leave the generator in the same state. referencePrefill returns
// the row and that state, adding the row's bits to cs when non-nil.
func referencePrefill(level int, seed, key uint64, shifted bool, cs *colState) (refRow, uint64) {
	var r refRow
	rng := &refSplitmix{x: seed ^ key*0x9e3779b97f4a7c15}
	hotDraws, coldOdds := residentParams(level)
	coldMask := coldOdds - 1
	var hotPos [BlockSize / 8]int
	for w := range hotPos {
		hotPos[w] = w*8 + int(rng.next()&7)
	}
	for b := 0; b < BlocksPerRow; b++ {
		for w := 0; w < BlockSize/8; w++ {
			for k := 0; k < 8; k++ {
				pos := w*8 + k
				var v byte
				if pos == hotPos[w] {
					v = refHotByte(rng, hotDraws)
				} else if rng.next()&coldMask == 0 {
					v = 1 << (rng.next() & 7)
				}
				r.data[b][pos] = v
			}
		}
		if shifted {
			r.data[b] = bits.Shifted(r.data[b], b)
		}
		base := b * 8
		for m := 0; m < BlockSize; m++ {
			c := r.data[b][m]
			r.counters[m] += uint16(mbits.OnesCount8(c))
			if cs != nil {
				for v := c; v != 0; v &= v - 1 {
					cs[m][base+mbits.TrailingZeros8(v)]++
				}
			}
		}
		if shifted {
			raw := bits.Unshifted(r.data[b], b)
			for m := 0; m < BlockSize; m++ {
				r.unshifted[m] += uint16(mbits.OnesCount8(raw[m]))
			}
		}
	}
	return r, rng.x
}

// TestPrefillMatchesReference materializes the same rows through a
// store's view of resident images and with referencePrefill, at every
// resident level and store configuration, and compares data, counters,
// column state and the generator state drawRow leaves behind, row by
// row.
func TestPrefillMatchesReference(t *testing.T) {
	const seed = 0xc0ffee
	for level := 1; level <= 4; level++ {
		for _, mode := range residentModes {
			t.Run(fmt.Sprintf("level=%d/%s", level, mode), func(t *testing.T) {
				s := residentStore(t, level, seed, mode)
				refCols := map[uint64]*colState{}
				for i := uint64(0); i < 64; i++ {
					key := i*i*7919 + i
					var cs *colState
					if mode == "columns" {
						g := key / uint64(s.geom.MatRows)
						if refCols[g] == nil {
							refCols[g] = new(colState)
						}
						cs = refCols[g]
					}
					want, rx := referencePrefill(level, seed, key, mode == "shifted", cs)
					r := s.ensure(key)
					var got refRow
					for b := range got.data {
						got.data[b] = *r.block(b)
					}
					got.counters, got.unshifted = r.counters, r.unshifted
					if got != want {
						t.Fatalf("row %d: prefill differs from the reference", key)
					}
					var drawn [BlocksPerRow]bits.Line
					if fx := drawRow(&drawn, level, seed, key); fx != rx {
						t.Fatalf("row %d: generator state %#x after prefill, reference %#x (draw count changed)", key, fx, rx)
					}
				}
				if len(s.cols) != len(refCols) {
					t.Fatalf("%d mat groups hold column state, reference %d", len(s.cols), len(refCols))
				}
				for g, want := range refCols {
					if *groupCols(s, s.cols[g]) != *want {
						t.Fatalf("mat group %d: column state differs from the reference", g)
					}
				}
			})
		}
	}
}
