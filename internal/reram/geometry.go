// Package reram models the organization of a crossbar ReRAM main memory:
// the channel/rank/bank hierarchy, the mapping of 64-byte memory blocks
// onto mats and wordline groups (paper Figure 3), and a sparse content
// store that tracks the actual stored bits plus exact per-wordline LRS
// counters for every touched wordline group.
package reram

import (
	"errors"
	"fmt"
)

// BlockSize is the size of one memory block in bytes.
const BlockSize = 64

// BlocksPerRow is the number of memory blocks mapped to one wordline group
// (one 4 KB physical page: 64 blocks × 64 B).
const BlocksPerRow = 64

// RowBytes is the data capacity of one wordline group.
const RowBytes = BlockSize * BlocksPerRow

// Geometry describes the memory organization (paper Table 2: 16 GB, dual
// channel, 2 ranks/channel, 8 banks/rank, ×8 chips with 512×512 mats).
type Geometry struct {
	// Channels, RanksPerChannel, BanksPerRank define the hierarchy.
	Channels        int
	RanksPerChannel int
	BanksPerRank    int
	// MatGroupsPerBank is the number of 64-mat groups stacked in a bank;
	// each group contributes MatRows wordline groups.
	MatGroupsPerBank int
	// MatRows is the crossbar dimension (wordlines per mat).
	MatRows int
}

// DefaultGeometry returns the paper's configuration scaled so the total
// capacity is 16 GB: 2 channels × 2 ranks × 8 banks × 256 mat groups ×
// 512 rows × 4 KB.
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:         2,
		RanksPerChannel:  2,
		BanksPerRank:     8,
		MatGroupsPerBank: 256,
		MatRows:          512,
	}
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0 || g.RanksPerChannel <= 0 || g.BanksPerRank <= 0:
		return errors.New("reram: hierarchy dimensions must be positive")
	case g.MatGroupsPerBank <= 0:
		return errors.New("reram: MatGroupsPerBank must be positive")
	case g.MatRows <= 0:
		return fmt.Errorf("reram: MatRows %d must be positive", g.MatRows)
	}
	return nil
}

// Banks returns the total number of banks.
func (g Geometry) Banks() int {
	return g.Channels * g.RanksPerChannel * g.BanksPerRank
}

// RowsPerBank returns the number of wordline groups per bank.
func (g Geometry) RowsPerBank() int {
	return g.MatGroupsPerBank * g.MatRows
}

// Rows returns the total number of wordline groups.
func (g Geometry) Rows() uint64 {
	return uint64(g.Banks()) * uint64(g.RowsPerBank())
}

// Lines returns the total number of 64-byte memory blocks.
func (g Geometry) Lines() uint64 { return g.Rows() * BlocksPerRow }

// Location is a fully decoded physical position of one memory block.
type Location struct {
	Channel int
	Rank    int
	Bank    int
	// Row is the wordline-group index within the bank.
	Row int
	// Slot is the block's position within its wordline group (0..63); it
	// fixes the bitline span the block's bits occupy in every mat.
	Slot int
	// WL is the wordline index within the crossbar (0 = nearest the
	// bitline driver), i.e. Row modulo MatRows.
	WL int
	// BLHigh is the highest bitline index the block's byte occupies in a
	// mat (the worst-case bitline location for latency lookup).
	BLHigh int
}

// GlobalRow returns a dense index of the wordline group across the whole
// memory, used as the content-store key.
func (g Geometry) GlobalRow(loc Location) uint64 {
	bank := (loc.Channel*g.RanksPerChannel+loc.Rank)*g.BanksPerRank + loc.Bank
	return uint64(bank)*uint64(g.RowsPerBank()) + uint64(loc.Row)
}

// Decode maps a line address (a dense block index) to its physical
// location. Consecutive blocks fill a wordline group before moving to the
// next row; rows round-robin across channels, then ranks, then banks, so
// pages spread over the hierarchy while each 4 KB page stays within one
// wordline group (the property LADDER's metadata layout relies on).
func (g Geometry) Decode(line uint64) (Location, error) {
	if line >= g.Lines() {
		return Location{}, fmt.Errorf("reram: line address %d beyond capacity (%d lines)", line, g.Lines())
	}
	var loc Location
	loc.Slot = int(line % BlocksPerRow)
	row := line / BlocksPerRow
	loc.Channel = int(row % uint64(g.Channels))
	row /= uint64(g.Channels)
	loc.Rank = int(row % uint64(g.RanksPerChannel))
	row /= uint64(g.RanksPerChannel)
	loc.Bank = int(row % uint64(g.BanksPerRank))
	row /= uint64(g.BanksPerRank)
	loc.Row = int(row)
	if loc.Row >= g.RowsPerBank() {
		return Location{}, fmt.Errorf("reram: row %d beyond bank capacity %d", loc.Row, g.RowsPerBank())
	}
	loc.WL = loc.Row % g.MatRows
	// Block slot s occupies bitlines [8s, 8s+8) of every mat it touches.
	loc.BLHigh = loc.Slot*8 + 7
	return loc, nil
}

// Channel returns the channel Decode places line on, without decoding
// the rest of its location. The caller keeps line below Lines().
func (g Geometry) Channel(line uint64) int {
	return int(line / BlocksPerRow % uint64(g.Channels))
}

// Encode is the inverse of Decode.
func (g Geometry) Encode(loc Location) uint64 {
	row := uint64(loc.Row)
	row = row*uint64(g.BanksPerRank) + uint64(loc.Bank)
	row = row*uint64(g.RanksPerChannel) + uint64(loc.Rank)
	row = row*uint64(g.Channels) + uint64(loc.Channel)
	return row*BlocksPerRow + uint64(loc.Slot)
}
