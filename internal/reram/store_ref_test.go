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

// referencePrefill is resident prefill written the plain way: one byte at
// a time, each stored byte read back and counted bit by bit into the
// wordline, unshifted and column counters. drawRow assembles words and
// Store.account counts them with SWAR popcounts; together they must agree
// with this bit for bit and leave the generator in the same state. It
// returns that state.
func referencePrefill(s *Store, r *rowState, cs *colState, key uint64) uint64 {
	rng := &refSplitmix{x: s.resident.seed ^ key*0x9e3779b97f4a7c15}
	hotDraws, coldOdds := residentParams(s.resident.level)
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
		if s.residentTransform != nil {
			r.data[b] = s.residentTransform(b, r.data[b])
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
		if s.trackUnshifted {
			raw := bits.Unshifted(r.data[b], b)
			for m := 0; m < BlockSize; m++ {
				r.unshifted[m] += uint16(mbits.OnesCount8(raw[m]))
			}
		}
	}
	return rng.x
}

// TestPrefillMatchesReference prefills the same rows with drawRow followed
// by Store.account and with referencePrefill, at every resident level and
// store configuration, and compares data, counters, column state and the
// generator state left behind, row by row.
func TestPrefillMatchesReference(t *testing.T) {
	for level := 1; level <= 4; level++ {
		for _, mode := range residentModes {
			t.Run(fmt.Sprintf("level=%d/%s", level, mode), func(t *testing.T) {
				fast := residentStore(t, level, 0xc0ffee, mode)
				ref := residentStore(t, level, 0xc0ffee, mode)
				var fastCols, refCols colState
				for i := uint64(0); i < 64; i++ {
					key := i*i*7919 + i
					var fr, rr rowState
					var fc, rc *colState
					if mode == "columns" {
						fc, rc = &fastCols, &refCols
					}
					fx := drawRow(&fr.data, level, 0xc0ffee, key)
					fast.account(&fr, fc)
					rx := referencePrefill(ref, &rr, rc, key)
					if fr != rr {
						t.Fatalf("row %d: prefill differs from the reference", key)
					}
					if fx != rx {
						t.Fatalf("row %d: generator state %#x after prefill, reference %#x (draw count changed)", key, fx, rx)
					}
				}
				if fastCols != refCols {
					t.Fatal("column state differs from the reference")
				}
			})
		}
	}
}
