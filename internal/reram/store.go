package reram

import (
	"encoding/binary"
	"fmt"
	mbits "math/bits"

	"ladder/internal/bits"
	"ladder/internal/metrics"
)

// rowState holds the stored content of one wordline group plus exact
// per-wordline LRS counters, maintained incrementally. Wordline m of the
// group stores byte m of every block mapped to the group, so
// counters[m] = Σ_blocks popcount(block[m]).
type rowState struct {
	data [BlocksPerRow]bits.Line
	// counters[m] counts the LRS cells on wordline m of the group (range
	// 0..512 for 64 blocks × 8 bits).
	counters [BlockSize]uint16
	// unshifted[m] counts the LRS cells wordline m would hold if every
	// block were reverse-shifted into the raw bit layout — maintained
	// incrementally only when the store tracks unshifted counters, so
	// MaxRowCounterUnshifted (called on every Est/Hybrid dispatch) avoids
	// re-deriving 64 reverse shifts per call.
	unshifted [BlockSize]uint16
	// writes counts block writes landing in this row (wear tracking).
	writes uint64
}

// matCols is the number of bitlines per mat.
const matCols = 512

// colState tracks exact per-bitline LRS counts for one mat group: 64 mats
// × 512 bitlines, counting over the MatRows wordlines of the group. The
// BLP baseline's profiling circuitry exposes these for free.
type colState [BlockSize][matCols]uint16

// Store is a sparse model of the ReRAM content: rows are allocated on
// first write. Untouched memory reads as zero (all HRS), which matches a
// freshly initialized device.
type Store struct {
	geom Geometry
	rows map[uint64]*rowState
	// cols tracks per-bitline LRS counts, keyed by mat-group id
	// (globalRow / MatRows), allocated lazily.
	cols map[uint64]*colState
	// totalWrites counts all block writes for wear statistics.
	totalWrites uint64
	// writtenRows counts rows with at least one block write.
	writtenRows int
	// bankWrites counts block writes per bank (dense index as in
	// Geometry.GlobalRow: ((channel*ranks)+rank)*banks + bank), feeding
	// the per-bank wear view of the run report. Entries are nil
	// (counting nothing) until Instrument.
	bankWrites []*metrics.Counter
	// resident supplies synthetic resident rows (SetResident,
	// UseResident); nil means a fresh all-HRS device.
	resident *Resident
	// residentTransform stores resident blocks through the scheme's
	// datapath (SetResidentTransform).
	residentTransform func(slot int, l bits.Line) bits.Line
	// trackCols enables per-bitline LRS maintenance. Only the BLP
	// baseline's profiling readout (MaxSelectedColCount) consumes it, and
	// the bookkeeping touches every changed bit of every write, so runs of
	// other schemes switch it off.
	trackCols bool
	// trackUnshifted enables incremental unshifted per-wordline counters
	// (see rowState.unshifted).
	trackUnshifted bool
}

// NewStore returns an empty content store over the given geometry.
func NewStore(g Geometry) (*Store, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Store{
		geom:       g,
		rows:       make(map[uint64]*rowState),
		cols:       make(map[uint64]*colState),
		bankWrites: make([]*metrics.Counter, g.Banks()),
		trackCols:  true,
	}, nil
}

// Instrument fetches (creating on first use) the per-bank write counters
// reram.chC.rankR.bankB.writes from reg. Call before the first write; a
// store never instrumented keeps only TotalWrites.
func (s *Store) Instrument(reg *metrics.Registry) {
	g := s.geom
	for i := range s.bankWrites {
		bank := i % g.BanksPerRank
		rank := (i / g.BanksPerRank) % g.RanksPerChannel
		ch := i / (g.BanksPerRank * g.RanksPerChannel)
		s.bankWrites[i] = reg.Counter(fmt.Sprintf("reram.ch%d.rank%d.bank%d.writes", ch, rank, bank))
	}
}

// SetColumnTracking switches per-bitline LRS maintenance on or off. It
// must be called before the first write: counts accumulated while
// tracking was off are not reconstructed. Tracking defaults to on;
// simulation runs disable it for every scheme but BLP.
func (s *Store) SetColumnTracking(on bool) { s.trackCols = on }

// TrackUnshiftedCounters enables incremental per-wordline counters over
// the reverse-shifted bit layout, turning MaxRowCounterUnshifted from a
// 64-block reverse-shift scan into a counter max. Like SetColumnTracking
// it must be enabled before the first write; shifting schemes (Est,
// Hybrid) enable it at construction.
func (s *Store) TrackUnshiftedCounters() { s.trackUnshifted = true }

// SetResident enables synthetic resident data: when a wordline group is
// first touched, every block is filled with structured pseudo-random
// content. This models a machine in steady state — the paper's warmed-up
// gem5 checkpoints — rather than a factory-fresh all-HRS device, which
// matters because per-bitline LRS counts aggregate all rows of a mat
// group and per-wordline counts aggregate resident neighbors.
//
// The structure mirrors real in-memory data: per row, one "dense" byte
// position per 8-byte word position (think FP exponents or pointer high
// bytes), aligned across the row's blocks, with the remaining bytes
// mostly zero. Level selects overall density: 1 ≈ dense (FP-heavy), 2 ≈
// typical, 3 ≈ sparse (integer/pointer-heavy). Level 0 disables prefill.
//
// The store draws each row privately; UseResident shares rows drawn once
// across stores instead.
func (s *Store) SetResident(level int, seed uint64) {
	s.resident = nil
	if level > 0 {
		s.resident = &Resident{level: level, seed: seed}
	}
}

// UseResident takes resident data from a shared Resident (see NewResident):
// the store copies each row it touches from r, so stores of one (level,
// seed) draw every row once between them. A nil r disables prefill.
func (s *Store) UseResident(r *Resident) { s.resident = r }

// SetResidentTransform installs the controller datapath's storage
// transform (e.g. LADDER-Est's intra-line bit shifting): under a scheme
// that transforms lines before storing them, resident data written before
// the simulation window would have been stored in transformed form too.
// The transform receives the block's slot within its wordline group.
func (s *Store) SetResidentTransform(f func(slot int, l bits.Line) bits.Line) {
	s.residentTransform = f
}

// perBytePop returns the popcount of every byte of x in the corresponding
// byte lane of the result (each lane holds 0..8).
func perBytePop(x uint64) uint64 {
	x -= (x >> 1) & 0x5555555555555555
	x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
	return (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f
}

// laneFlushBlocks is how many blocks of perBytePop lanes a byte lane can
// sum before it could pass 255 (8 per block).
const laneFlushBlocks = 31

// flushLanes adds the byte lanes of acc (lane k of word w counts wordline
// w*8+k) to the counters and clears acc.
func flushLanes(dst *[BlockSize]uint16, acc *[BlockSize / 8]uint64) {
	for w, lanes := range acc {
		for k := 0; k < 8; k++ {
			dst[w*8+k] += uint16(lanes >> (8 * k) & 0xff)
		}
		acc[w] = 0
	}
}

// EnsureRow allocates (and prefills, when resident data is enabled) the
// wordline group containing the line. The memory controller calls this on
// first reference so metadata initialization observes resident content.
func (s *Store) EnsureRow(line uint64) error {
	loc, err := s.geom.Decode(line)
	if err != nil {
		return err
	}
	s.ensure(s.geom.GlobalRow(loc))
	return nil
}

// ensure returns the row state, allocating and prefilling on first touch.
func (s *Store) ensure(key uint64) *rowState {
	if r := s.rows[key]; r != nil {
		return r
	}
	r := &rowState{}
	s.rows[key] = r
	if s.resident != nil {
		s.resident.fill(&r.data, key)
		var cs *colState
		if s.trackCols {
			cs = s.colsOf(key)
		}
		s.account(r, cs)
	}
	return r
}

// colsOf returns the column state of the row's mat group, allocating it on
// first use.
func (s *Store) colsOf(key uint64) *colState {
	matGroup := key / uint64(s.geom.MatRows)
	cs := s.cols[matGroup]
	if cs == nil {
		cs = &colState{}
		s.cols[matGroup] = cs
	}
	return cs
}

// account stores a freshly drawn row through the datapath transform and
// adds it to the row's counters (and to cs, the mat group's column state,
// when non-nil).
func (s *Store) account(r *rowState, cs *colState) {
	// Per-byte popcounts of the stored (and unshifted) words accumulate in
	// byte lanes, flushed to the uint16 counters before a lane can carry.
	var acc, accRaw [BlockSize / 8]uint64
	for b := 0; b < BlocksPerRow; b++ {
		blk := &r.data[b]
		if s.residentTransform != nil {
			*blk = s.residentTransform(b, *blk)
		}
		var raw bits.Line
		if s.trackUnshifted {
			raw = bits.Unshifted(*blk, b)
		}
		base := b * 8
		for w := 0; w < BlockSize/8; w++ {
			word := binary.LittleEndian.Uint64(blk[w*8:])
			acc[w] += perBytePop(word)
			if s.trackUnshifted {
				accRaw[w] += perBytePop(binary.LittleEndian.Uint64(raw[w*8:]))
			}
			if cs != nil {
				for ; word != 0; word &= word - 1 {
					i := mbits.TrailingZeros64(word)
					cs[w*8+i>>3][base+i&7]++
				}
			}
		}
		if (b+1)%laneFlushBlocks == 0 || b == BlocksPerRow-1 {
			flushLanes(&r.counters, &acc)
			if s.trackUnshifted {
				flushLanes(&r.unshifted, &accRaw)
			}
		}
	}
}

// Geometry returns the store's geometry.
func (s *Store) Geometry() Geometry { return s.geom }

// row fetches (without allocating) the state of a global row.
func (s *Store) row(globalRow uint64) *rowState { return s.rows[globalRow] }

// Read returns the stored content of the block at the given line address.
func (s *Store) Read(line uint64) (bits.Line, error) {
	loc, err := s.geom.Decode(line)
	if err != nil {
		return bits.Line{}, err
	}
	r := s.row(s.geom.GlobalRow(loc))
	if r == nil {
		return bits.Line{}, nil
	}
	return r.data[loc.Slot], nil
}

// Write stores new content at the line address and returns the previous
// content. Per-wordline counters are updated incrementally.
func (s *Store) Write(line uint64, data bits.Line) (old bits.Line, err error) {
	loc, err := s.geom.Decode(line)
	if err != nil {
		return bits.Line{}, err
	}
	key := s.geom.GlobalRow(loc)
	r := s.ensure(key)
	old = r.data[loc.Slot]
	for m := 0; m < BlockSize; m++ {
		if old[m] == data[m] {
			continue
		}
		delta := mbits.OnesCount8(data[m]) - mbits.OnesCount8(old[m])
		r.counters[m] = uint16(int(r.counters[m]) + delta)
	}
	if s.trackCols {
		// Update per-bitline counters for the changed bits.
		cs := s.colsOf(key)
		base := loc.Slot * 8
		for m := 0; m < BlockSize; m++ {
			changed := old[m] ^ data[m]
			for v := changed; v != 0; v &= v - 1 {
				k := mbits.TrailingZeros8(v)
				if data[m]&(1<<uint(k)) != 0 {
					cs[m][base+k]++
				} else {
					cs[m][base+k]--
				}
			}
		}
	}
	if s.trackUnshifted {
		rawOld := bits.Unshifted(old, loc.Slot)
		rawNew := bits.Unshifted(data, loc.Slot)
		for m := 0; m < BlockSize; m++ {
			if rawOld[m] == rawNew[m] {
				continue
			}
			delta := mbits.OnesCount8(rawNew[m]) - mbits.OnesCount8(rawOld[m])
			r.unshifted[m] = uint16(int(r.unshifted[m]) + delta)
		}
	}
	r.data[loc.Slot] = data
	if r.writes == 0 {
		s.writtenRows++
	}
	r.writes++
	s.totalWrites++
	s.bankWrites[(loc.Channel*s.geom.RanksPerChannel+loc.Rank)*s.geom.BanksPerRank+loc.Bank].Inc()
	return old, nil
}

// MaxSelectedColCount returns the worst per-bitline LRS count among the
// bitlines a write to the given line would select (8 bitlines in each of
// the 64 mats). This models the BLP baseline's bitline profiling readout.
func (s *Store) MaxSelectedColCount(line uint64) (int, error) {
	loc, err := s.geom.Decode(line)
	if err != nil {
		return 0, err
	}
	cs := s.cols[s.geom.GlobalRow(loc)/uint64(s.geom.MatRows)]
	if cs == nil {
		return 0, nil
	}
	base := loc.Slot * 8
	m := uint16(0)
	for mat := 0; mat < BlockSize; mat++ {
		for k := 0; k < 8; k++ {
			if c := cs[mat][base+k]; c > m {
				m = c
			}
		}
	}
	return int(m), nil
}

// MaxRowCounterUnshifted returns C^w_lrs as it would be if every stored
// block were reverse-shifted into LADDER-Basic's raw bit layout. The
// Figure 15 estimation-accuracy study compares LADDER-Est's estimates
// (taken over shifted data) against exactly this quantity.
func (s *Store) MaxRowCounterUnshifted(line uint64) (int, error) {
	loc, err := s.geom.Decode(line)
	if err != nil {
		return 0, err
	}
	r := s.row(s.geom.GlobalRow(loc))
	if r == nil {
		return 0, nil
	}
	if s.trackUnshifted {
		m := uint16(0)
		for _, c := range r.unshifted {
			if c > m {
				m = c
			}
		}
		return int(m), nil
	}
	var counters [BlockSize]int
	for b := 0; b < BlocksPerRow; b++ {
		raw := bits.Unshifted(r.data[b], b)
		for m := 0; m < BlockSize; m++ {
			counters[m] += mbits.OnesCount8(raw[m])
		}
	}
	max := 0
	for _, c := range counters {
		if c > max {
			max = c
		}
	}
	return max, nil
}

// RowCounters returns a copy of the exact per-wordline LRS counters of the
// wordline group containing the given line address.
func (s *Store) RowCounters(line uint64) ([BlockSize]uint16, error) {
	loc, err := s.geom.Decode(line)
	if err != nil {
		return [BlockSize]uint16{}, err
	}
	r := s.row(s.geom.GlobalRow(loc))
	if r == nil {
		return [BlockSize]uint16{}, nil
	}
	return r.counters, nil
}

// MaxRowCounter returns the exact worst-wordline LRS count C^w_lrs of the
// wordline group containing the line — the quantity the Oracle scheme is
// allowed to read for free and LADDER must estimate.
func (s *Store) MaxRowCounter(line uint64) (int, error) {
	cs, err := s.RowCounters(line)
	if err != nil {
		return 0, err
	}
	m := uint16(0)
	for _, c := range cs {
		if c > m {
			m = c
		}
	}
	return int(m), nil
}

// RecountRow recomputes the row counters from the stored data, for
// validation against the incremental ones.
func (s *Store) RecountRow(line uint64) ([BlockSize]uint16, error) {
	loc, err := s.geom.Decode(line)
	if err != nil {
		return [BlockSize]uint16{}, err
	}
	var out [BlockSize]uint16
	r := s.row(s.geom.GlobalRow(loc))
	if r == nil {
		return out, nil
	}
	for m := 0; m < BlockSize; m++ {
		total := 0
		for b := 0; b < BlocksPerRow; b++ {
			total += mbits.OnesCount8(r.data[b][m])
		}
		out[m] = uint16(total)
	}
	return out, nil
}

// RowWrites returns how many block writes landed in the row containing
// the line address.
func (s *Store) RowWrites(line uint64) (uint64, error) {
	loc, err := s.geom.Decode(line)
	if err != nil {
		return 0, err
	}
	r := s.row(s.geom.GlobalRow(loc))
	if r == nil {
		return 0, nil
	}
	return r.writes, nil
}

// TotalWrites returns the total number of block writes served.
func (s *Store) TotalWrites() uint64 { return s.totalWrites }

// TouchedRows returns the number of wordline groups written at least once.
// Rows only materialized for reading (resident prefill reached through
// EnsureRow, e.g. metadata initialization) do not count.
func (s *Store) TouchedRows() int { return s.writtenRows }

// MaxRowWrites returns the largest per-row write count, the quantity the
// worst-cell lifetime model keys on.
func (s *Store) MaxRowWrites() uint64 {
	var m uint64
	for _, r := range s.rows {
		if r.writes > m {
			m = r.writes
		}
	}
	return m
}

// String summarizes the store.
func (s *Store) String() string {
	return fmt.Sprintf("reram.Store{rows: %d, writes: %d}", len(s.rows), s.totalWrites)
}
