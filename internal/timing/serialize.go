package timing

import (
	"fmt"
	"math"
)

// The SPD ROM image (Section 6.3): the memory-module manufacturer
// programs the write-timing table into a Serial Presence Detect ROM, one
// byte per entry (8×8×8 = 512 B), which the host loads at boot. The byte
// encoding quantizes latency over [MinNs, MaxNs] and always rounds up, so
// a decoded table is never optimistic.

// SPDBytes is the ROM image size: one byte per table entry.
const SPDBytes = Buckets * Buckets * Buckets

// EncodeSPD quantizes the table into the 512-byte ROM image.
func (t *Table) EncodeSPD() [SPDBytes]byte {
	var out [SPDBytes]byte
	span := float64(MaxLatencyNs - MinLatencyNs)
	i := 0
	for wb := 0; wb < Buckets; wb++ {
		for bb := 0; bb < Buckets; bb++ {
			for cb := 0; cb < Buckets; cb++ {
				frac := (t.LatNs[wb][bb][cb] - MinLatencyNs) / span
				code := int(math.Ceil(frac * 255))
				if code < 0 {
					code = 0
				}
				if code > 255 {
					code = 255
				}
				out[i] = byte(code)
				i++
			}
		}
	}
	return out
}

// DecodeSPD reconstructs a (conservatively quantized) table from a ROM
// image.
func DecodeSPD(spd [SPDBytes]byte, granularity int, content ContentDim) (*Table, error) {
	if granularity <= 0 {
		return nil, fmt.Errorf("timing: granularity %d must be positive", granularity)
	}
	t := &Table{Granularity: granularity, Content: content}
	span := float64(MaxLatencyNs - MinLatencyNs)
	i := 0
	for wb := 0; wb < Buckets; wb++ {
		for bb := 0; bb < Buckets; bb++ {
			for cb := 0; cb < Buckets; cb++ {
				t.LatNs[wb][bb][cb] = MinLatencyNs + float64(spd[i])/255*span
				i++
			}
		}
	}
	return t, nil
}
