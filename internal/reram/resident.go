package reram

import (
	"encoding/binary"
	"sync"

	"ladder/internal/bits"
)

// Resident supplies the synthetic resident content of one (level, seed):
// the raw data every wordline group holds before the simulation window,
// before any scheme's datapath transform. A row's content is a pure
// function of (level, seed, row key), so stores simulating the same
// machine under different schemes can share one Resident and draw each
// row once; each store still applies its own transform and builds its
// own counters from a private copy.
//
// A shared Resident (NewResident) retains every row it draws and is safe
// for concurrent use; the rows it retains are never written. The private
// Resident behind Store.SetResident retains nothing and draws each row
// straight into its store.
type Resident struct {
	level int
	seed  uint64
	mu    sync.Mutex
	// rows holds the drawn rows by key; nil for a private Resident.
	rows map[uint64]*[BlocksPerRow]bits.Line
}

// NewResident returns a shared Resident for the given level and seed (see
// Store.SetResident for their meaning). Level <= 0 returns nil: a fresh
// all-HRS device has no resident data.
func NewResident(level int, seed uint64) *Resident {
	if level <= 0 {
		return nil
	}
	return &Resident{level: level, seed: seed, rows: make(map[uint64]*[BlocksPerRow]bits.Line)}
}

// row returns the retained content of a row, drawing it on first request.
// The draw runs outside the lock; when two goroutines draw the same key at
// once, the first insert wins and both copies are identical.
func (r *Resident) row(key uint64) *[BlocksPerRow]bits.Line {
	r.mu.Lock()
	d := r.rows[key]
	r.mu.Unlock()
	if d != nil {
		return d
	}
	d = new([BlocksPerRow]bits.Line)
	drawRow(d, r.level, r.seed, key)
	r.mu.Lock()
	if prev := r.rows[key]; prev != nil {
		d = prev
	} else {
		r.rows[key] = d
	}
	r.mu.Unlock()
	return d
}

// fill copies the row's resident content into dst.
func (r *Resident) fill(dst *[BlocksPerRow]bits.Line, key uint64) {
	if r.rows == nil {
		drawRow(dst, r.level, r.seed, key)
		return
	}
	*dst = *r.row(key)
}

// residentParams returns the per-level bit statistics: hotDraws is the
// number of rng draws ANDed/ORed into a hot byte, coldOdds the odds (a
// power of two) that a cold byte is nonzero.
func residentParams(level int) (hotDraws int, coldOdds uint64) {
	switch {
	case level <= 1:
		return 1, 4 // hot p=0.5, cold byte nonzero 1 in 4
	case level == 2:
		return 2, 8 // hot p≈0.375, cold 1 in 8
	default:
		return 3, 16 // hot p=0.25, cold 1 in 16
	}
}

// splitmixGamma is the splitmix64 state increment.
const splitmixGamma = 0x9e3779b97f4a7c15

// splitmix64 advances a splitmix64 state by one draw, returning the new
// state and the draw. Resident synthesis keeps the state in a local
// variable, so a draw costs no memory traffic.
func splitmix64(x uint64) (state, out uint64) {
	x += splitmixGamma
	z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return x, z ^ (z >> 31)
}

// residentHotByte synthesizes one dense byte for the given level, returning
// the advanced state and the byte in the low 8 bits.
func residentHotByte(x uint64, hotDraws int) (state, hot uint64) {
	var a, b, c uint64
	switch hotDraws {
	case 1:
		x, a = splitmix64(x)
		return x, a & 0xff
	case 2:
		x, a = splitmix64(x)
		x, b = splitmix64(x)
		x, c = splitmix64(x)
		return x, (a | b) & c & 0xff // p = 0.375
	default:
		x, a = splitmix64(x)
		x, b = splitmix64(x)
		return x, a & b & 0xff // p = 0.25
	}
}

// drawRow synthesizes the raw resident content of one row into dst. Each
// row draws from its own splitmix64 stream: first one dense byte position
// per 8-byte word position, fixed per row and aligned across blocks (the
// page-repetitive pattern real data shows); then, block by block and byte
// by byte, either the dense byte's draws or a cold-byte draw followed, when
// the cold byte is nonzero, by a bit-position draw. It returns the final
// stream state, so tests can tell a changed draw count.
func drawRow(dst *[BlocksPerRow]bits.Line, level int, seed, key uint64) uint64 {
	x := seed ^ key*splitmixGamma
	var v uint64
	hotDraws, coldOdds := residentParams(level)
	coldMask := coldOdds - 1
	var hotK [BlockSize / 8]int
	for w := range hotK {
		x, v = splitmix64(x)
		hotK[w] = int(v & 7)
	}
	for b := range dst {
		blk := &dst[b]
		for w := 0; w < BlockSize/8; w++ {
			var word uint64
			for k := 0; k < 8; k++ {
				var c uint64
				if k == hotK[w] {
					x, c = residentHotByte(x, hotDraws)
				} else if x, v = splitmix64(x); v&coldMask == 0 {
					x, v = splitmix64(x)
					c = 1 << (v & 7)
				}
				word |= c << (8 * k)
			}
			binary.LittleEndian.PutUint64(blk[w*8:], word)
		}
	}
	return x
}
