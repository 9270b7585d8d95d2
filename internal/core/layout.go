package core

import (
	"ladder/internal/reram"
)

// Metadata layout (Sections 3.3, 4.1, 4.2).
//
// The LRS-metadata lives in a reserved region of main memory that the host
// carves out at boot and hides from the OS. Two layouts exist:
//
//   - Basic: one LRS-counter group per wordline group — 64 counters of 10
//     bits ≈ 80 B, spanning two 64 B metadata blocks (3.12% of capacity).
//   - Hybrid: rows near the write driver (wordline index below the
//     precision control register, LowPrecisionRows) keep two 1-bit
//     counters per block — 16 B per page, so one metadata block covers
//     four pages. Other rows keep one packed partial-counter byte per data
//     block — 64 B per 4 KB page, a single metadata block (1.56%). Est is
//     this layout with the register at 0: every row keeps packed bytes.

// MetaLineSize is the metadata block size (one memory line).
const MetaLineSize = 64

// DefaultLowPrecisionRows is the number of crossbar rows nearest the
// write driver that LADDER-Hybrid tracks with 1-bit counters (the paper
// empirically sets the bottom 128 of 512 rows).
const DefaultLowPrecisionRows = 128

// Layout computes metadata keys, physical placements and storage
// overheads.
type Layout struct {
	Geom reram.Geometry
	// LowPrecisionRows is the WL-index threshold below which Hybrid uses
	// 1-bit counters (0 for Est).
	LowPrecisionRows int
}

// NewLayout returns the default layout for a geometry.
func NewLayout(g reram.Geometry) Layout {
	return Layout{Geom: g, LowPrecisionRows: DefaultLowPrecisionRows}
}

// hybridLowKeyBit tags metadata keys of the Hybrid low-precision space so
// they never collide with Est-style per-row keys.
const hybridLowKeyBit = uint64(1) << 62

// BasicKeys returns the two metadata line keys of a wordline group under
// the Basic layout (counters 0–31 and 32–63).
func (l Layout) BasicKeys(globalRow uint64) [2]uint64 {
	return [2]uint64{globalRow * 2, globalRow*2 + 1}
}

// HybridKey returns the metadata key for a data block under the Hybrid
// layout and whether the low-precision (1-bit) encoding applies. Four
// *address-adjacent* pages of the same channel share one low-precision
// line, so sequential footprints hit the shared line repeatedly — the
// locality improvement Section 4.2 credits the compact layout with. High
// rows fall back to the Est key space (globalRow-keyed).
func (l Layout) HybridKey(line uint64, globalRow uint64, wl int) (key uint64, low bool) {
	if wl >= l.LowPrecisionRows {
		return globalRow, false
	}
	rowWalk := line / reram.BlocksPerRow
	ch := rowWalk % uint64(l.Geom.Channels)
	group := rowWalk / uint64(l.Geom.Channels) / 4
	return hybridLowKeyBit | (group*uint64(l.Geom.Channels) + ch), true
}

// LowGroupIndex returns which quarter of a low-precision metadata line a
// block's wordline group occupies.
func (l Layout) LowGroupIndex(line uint64) int {
	return int(line / reram.BlocksPerRow / uint64(l.Geom.Channels) % 4)
}

// LowGroupLines returns the slot-0 line addresses of the four wordline
// groups covered by a low-precision metadata key.
func (l Layout) LowGroupLines(key uint64) [4]uint64 {
	v := key &^ hybridLowKeyBit
	ch := v % uint64(l.Geom.Channels)
	group := v / uint64(l.Geom.Channels)
	var out [4]uint64
	for q := 0; q < 4; q++ {
		rowWalk := (group*4+uint64(q))*uint64(l.Geom.Channels) + ch
		out[q] = rowWalk * reram.BlocksPerRow
	}
	return out
}

// MetaLoc places a metadata line in the reserved region: the same bank as
// the data it covers (metadata is fetched through the same channel), in
// the top rows of the bank. The row is derived from the key so distinct
// metadata lines spread across the reserved rows, giving them varied
// (but generally far, hence conservative) write latencies.
func (l Layout) MetaLoc(key uint64, dataLoc reram.Location) reram.Location {
	reserved := l.Geom.RowsPerBank() / 25 // ≈4% of rows, enough for any layout
	if reserved == 0 {
		reserved = 1
	}
	row := l.Geom.RowsPerBank() - reserved + int(mix64(key)%uint64(reserved))
	return reram.Location{
		Channel: dataLoc.Channel,
		Rank:    dataLoc.Rank,
		Bank:    dataLoc.Bank,
		Row:     row,
		Slot:    int(key % reram.BlocksPerRow),
		WL:      row % l.Geom.MatRows,
		BLHigh:  int(key%reram.BlocksPerRow)*8 + 7,
	}
}

// StorageOverheadBasic returns the Basic layout's metadata storage as a
// fraction of data capacity: two metadata blocks per 64-block page.
func (l Layout) StorageOverheadBasic() float64 {
	return 2.0 * MetaLineSize / reram.RowBytes
}

// StorageOverheadEst returns the Est layout's overhead: one metadata
// block per page.
func (l Layout) StorageOverheadEst() float64 {
	return 1.0 * MetaLineSize / reram.RowBytes
}

// StorageOverheadHybrid returns the Hybrid layout's overhead: pages in
// low-precision rows share a metadata block four ways.
func (l Layout) StorageOverheadHybrid() float64 {
	lowFrac := float64(l.LowPrecisionRows) / float64(l.Geom.MatRows)
	return lowFrac*(MetaLineSize/4.0)/reram.RowBytes + (1-lowFrac)*MetaLineSize/reram.RowBytes
}

// mix64 is splitmix64's mixing function, used to scatter keys.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
