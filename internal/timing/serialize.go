package timing

import "sort"

// The SPD ROM image (Section 6.3): the memory-module manufacturer
// programs the write-timing table into a Serial Presence Detect ROM, one
// byte per entry (8×8×8 = 512 B), which the host loads at boot. The byte
// encoding quantizes latency over [MinNs, MaxNs] and always rounds up, so
// a decoded table is never optimistic, and re-encoding a decoded table
// reproduces its image byte for byte.

// SPDBytes is the ROM image size: one byte per table entry.
const SPDBytes = Buckets * Buckets * Buckets

// spdNs is the latency a ROM code decodes to.
func spdNs(code int) float64 {
	return MinLatencyNs + float64(code)/255*float64(MaxLatencyNs-MinLatencyNs)
}

// spdCode returns the smallest code whose decoded latency covers ns
// (255 when none does), so roundoff never pushes a decoded latency up.
func spdCode(ns float64) byte {
	return byte(sort.Search(255, func(c int) bool { return spdNs(c) >= ns }))
}

// EncodeSPD quantizes the table into the 512-byte ROM image.
func (t *Table) EncodeSPD() [SPDBytes]byte {
	var out [SPDBytes]byte
	i := 0
	for wb := 0; wb < Buckets; wb++ {
		for bb := 0; bb < Buckets; bb++ {
			for cb := 0; cb < Buckets; cb++ {
				out[i] = spdCode(t.LatNs[wb][bb][cb])
				i++
			}
		}
	}
	return out
}
