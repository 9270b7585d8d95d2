// Package bits provides bit-level utilities used throughout the LADDER
// framework: popcount helpers over memory lines, worst-byte partial counters
// (Section 4.1 of the paper), Flip-N-Write encoding and LADDER's constrained
// variant (Section 3.3), and the intra-line bit-level shifting transform
// (Section 4.1, "Improving estimation performance with shifting").
//
// Throughout this package a "line" is a 64-byte memory block, the unit the
// memory controller writes to the ReRAM main memory. A logical '1' stored in
// a cell corresponds to the low-resistance state (LRS); counting ones is
// therefore counting LRS cells.
//
// The helpers on this file are on the per-write hot path (FNW, LRS counting
// and the Est/Hybrid estimators all popcount whole lines), so they operate
// word-wise: eight bytes per step via math/bits.OnesCount64, with a SWAR
// per-byte popcount network where per-byte resolution is needed.
package bits

import (
	"encoding/binary"
	"math/bits"
)

// LineSize is the size in bytes of one memory block (cache line).
const LineSize = 64

// Line is a 64-byte memory block as seen by the memory controller.
type Line [LineSize]byte

// perBytePop returns the popcount of every byte of x in the corresponding
// byte lane of the result (each lane holds 0..8) — the first three steps of
// the classic SWAR popcount, stopped before the lanes are summed.
func perBytePop(x uint64) uint64 {
	x -= (x >> 1) & 0x5555555555555555
	x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
	return (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f
}

// laneHigh has the high bit of every byte lane set.
const laneHigh = 0x8080808080808080

// laneMax returns the lane-wise maximum of two words whose byte lanes
// each hold 0..127. Per lane, (a|0x80) - b keeps its high bit exactly
// when a >= b and never borrows from the next lane.
func laneMax(a, b uint64) uint64 {
	ge := ((a | laneHigh) - b) & laneHigh // high bit set in lanes where a >= b
	ge = (ge >> 7) * 0xff                 // widened to the whole lane
	return a&ge | b&^ge
}

// worstLane returns the maximum byte-lane value of a word whose lanes
// each hold 0..127, such as a perBytePop result or a laneMax of them.
func worstLane(lanes uint64) int {
	lanes = laneMax(lanes, lanes>>32)
	lanes = laneMax(lanes, lanes>>16)
	return int(laneMax(lanes, lanes>>8) & 0xff)
}

// Ones returns the total number of '1' bits (LRS cells) in the line.
func (l *Line) Ones() int {
	n := 0
	for o := 0; o < LineSize; o += 8 {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(l[o:]))
	}
	return n
}

// WorstByte returns the maximum per-byte popcount in p, i.e. S^M in the
// paper's notation: the number of ones in the worst byte of the block.
// It returns 0 for an empty slice.
func WorstByte(p []byte) int {
	var lanes uint64
	for len(p) >= 8 {
		lanes = laneMax(lanes, perBytePop(binary.LittleEndian.Uint64(p)))
		p = p[8:]
	}
	m := worstLane(lanes)
	for _, b := range p {
		if c := bits.OnesCount8(b); c > m {
			m = c
		}
	}
	return m
}
