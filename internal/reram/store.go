package reram

import (
	"encoding/binary"
	"fmt"
	mbits "math/bits"
	"sync"

	"ladder/internal/bits"
	"ladder/internal/metrics"
	"ladder/internal/recycle"
)

// rowState is one store's view of a wordline group: the resident image
// it was materialized from, the blocks this store wrote since, and exact
// per-wordline LRS counters over the combination, maintained
// incrementally. Wordline m of the group stores byte m of every block
// mapped to the group, so counters[m] = Σ_blocks popcount(block[m]).
type rowState struct {
	img *image
	// own holds the blocks this store wrote; a nil slot reads img's block.
	own [BlocksPerRow]*bits.Line
	// counters[m] counts the LRS cells on wordline m of the group (range
	// 0..512 for 64 blocks × 8 bits).
	counters [BlockSize]uint16
	// unshifted[m] counts the LRS cells wordline m would hold if every
	// block were reverse-shifted into the raw bit layout — maintained only
	// in a shifted store, so MaxRowCounterUnshifted (called on every
	// Est/Hybrid dispatch) avoids re-deriving 64 reverse shifts per call.
	unshifted [BlockSize]uint16
	// flips holds each block's FNW flip mask as last written through
	// WriteFNW (0 for a block never written that way: stored as is).
	flips [BlocksPerRow]uint8
	// writes counts block writes landing in this row (wear tracking).
	writes uint64
}

// block returns the stored content of a slot.
func (r *rowState) block(slot int) *bits.Line {
	if b := r.own[slot]; b != nil {
		return b
	}
	return &r.img.data[slot]
}

// slotCols counts the LRS cells on the 8 bitlines one block slot selects
// in each of a mat group's 64 mats: slotCols[mat][k] covers bitline
// slot*8+k, over the MatRows wordlines of the group.
type slotCols [BlockSize][8]uint16

// colGroup is the per-bitline LRS state of one mat group, which the BLP
// baseline's profiling circuitry exposes for free. It lists the group's
// materialized rows and counts a slot's bitlines only once a readout
// selects them, so a run pays for the bitlines BLP reads rather than for
// all 64 × 512 of every group it touches.
type colGroup struct {
	rows  []*rowState
	slots [BlocksPerRow]*slotCols
}

// addBlock adds a block's LRS cells to the counts of its slot's bitlines.
func (sc *slotCols) addBlock(blk *bits.Line) {
	for w := 0; w < BlockSize/8; w++ {
		for word := binary.LittleEndian.Uint64(blk[w*8:]); word != 0; word &= word - 1 {
			i := mbits.TrailingZeros64(word)
			sc[w*8+i>>3][i&7]++
		}
	}
}

// add lists a newly materialized row, counting it into every slot
// already counted.
func (g *colGroup) add(r *rowState) {
	g.rows = append(g.rows, r)
	for slot, sc := range g.slots {
		if sc != nil {
			sc.addBlock(r.block(slot))
		}
	}
}

// counted returns the counts of a slot's bitlines, nil while no readout
// has selected them (or, for a nil group, when tracking is off).
func (g *colGroup) counted(slot int) *slotCols {
	if g == nil {
		return nil
	}
	return g.slots[slot]
}

// slot returns the counts of a slot's bitlines, counting the group's rows
// on first use into counts taken from mem.
func (g *colGroup) slot(slot int, mem *storeMemory) *slotCols {
	sc := g.slots[slot]
	if sc == nil {
		sc = mem.slots.next()
		*sc = slotCols{}
		for _, r := range g.rows {
			sc.addBlock(r.block(slot))
		}
		g.slots[slot] = sc
	}
	return sc
}

// slabChunk is how many values a slab allocates at a time.
const slabChunk = 32

// slab hands out values from chunks it keeps: reset makes every value
// available again without freeing a chunk.
type slab[T any] struct {
	chunks [][]T
	used   int
}

// next returns an unused value, holding whatever its last user left in
// it: the caller resets it.
func (s *slab[T]) next() *T {
	c, i := s.used/slabChunk, s.used%slabChunk
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, slabChunk))
	}
	s.used++
	return &s.chunks[c][i]
}

// storeMemory is what a Store materializes rows into: its maps and the
// slabs of its row views, written blocks, mat groups and bitline
// counts. Recycle hands it to the next NewStore (storeMemories), so a
// warm process materializes rows without allocating.
type storeMemory struct {
	rows   map[uint64]*rowState
	cols   map[uint64]*colGroup
	views  slab[rowState]
	blocks slab[bits.Line]
	groups slab[colGroup]
	slots  slab[slotCols]
}

// storeMemories keeps recycled store memory.
var storeMemories = recycle.NewPool[storeMemory]()

// reset empties m. It also cuts the views' references to their images,
// so memory waiting for its next store keeps no Resident reachable.
func (m *storeMemory) reset() {
	if m.rows == nil {
		m.rows = make(map[uint64]*rowState)
		m.cols = make(map[uint64]*colGroup)
	}
	for _, r := range m.rows {
		r.img = nil
	}
	clear(m.rows)
	clear(m.cols)
	m.views.used, m.blocks.used, m.groups.used, m.slots.used = 0, 0, 0, 0
}

// Store is a sparse model of the ReRAM content: rows are materialized on
// first touch. Untouched memory reads as zero (all HRS), which matches a
// freshly initialized device, unless resident data is configured.
type Store struct {
	geom Geometry
	// mem is the memory rows materialize into, nil once the store is
	// recycled; rows and cols are its maps.
	mem  *storeMemory
	rows map[uint64]*rowState
	// cols tracks per-bitline LRS counts, keyed by mat-group id
	// (globalRow / MatRows), allocated lazily.
	cols map[uint64]*colGroup
	// totalWrites counts all block writes for wear statistics.
	totalWrites uint64
	// writtenRows counts rows with at least one block write.
	writtenRows int
	// bankWrites counts block writes per bank (dense index as in
	// Geometry.GlobalRow: ((channel*ranks)+rank)*banks + bank), feeding
	// the per-bank wear view of the run report. Entries are nil
	// (counting nothing) until Instrument.
	bankWrites []*metrics.Counter
	// resident supplies the images of resident rows (SetResident,
	// UseResident); nil means a fresh all-HRS device.
	resident *Resident
	// shifted marks a store behind the shifting datapath
	// (UseShiftedDatapath).
	shifted bool
	// trackCols enables per-bitline LRS maintenance. Only the BLP
	// baseline's profiling readout (MaxSelectedColCount) consumes it, and
	// the bookkeeping touches every changed bit of every write, so runs of
	// other schemes switch it off.
	trackCols bool
}

// NewStore returns an empty content store over the given geometry.
func NewStore(g Geometry) (*Store, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return newStore(g, storeMemories.Get()), nil
}

// newStore returns an empty store over g that materializes rows into
// mem.
func newStore(g Geometry, mem *storeMemory) *Store {
	mem.reset()
	return &Store{
		geom:       g,
		mem:        mem,
		rows:       mem.rows,
		cols:       mem.cols,
		bankWrites: make([]*metrics.Counter, g.Banks()),
		trackCols:  true,
	}
}

// Recycle hands the store's rows back for a later NewStore to reuse.
// The store must not be used again: Read, WriteAt and every other method
// that reads or writes a row panic.
func (s *Store) Recycle() {
	if s.mem != nil {
		storeMemories.Put(s.takeMemory())
	}
}

// takeMemory empties the store and returns its memory, leaving the
// store recycled.
func (s *Store) takeMemory() *storeMemory {
	m := s.mem
	m.reset()
	s.mem, s.rows, s.cols = nil, nil, nil
	return m
}

// errRecycled is the panic of a recycled store's row access.
const errRecycled = "reram: store used after Recycle"

// Instrument fetches (creating on first use) the per-bank write counters
// reram.chC.rankR.bankB.writes from reg. Call before the first write; a
// store never instrumented keeps only TotalWrites.
func (s *Store) Instrument(reg *metrics.Registry) {
	for i, name := range bankCounterNames(s.geom) {
		s.bankWrites[i] = reg.Counter(name)
	}
}

// bankNames memoizes bankCounterNames per bank hierarchy
// ([channels, ranks, banks]): every run instruments a store, and the
// names depend only on the hierarchy.
var bankNames sync.Map

// bankCounterNames returns the per-bank write counter names in dense
// bank order (Geometry.GlobalRow's bank index).
func bankCounterNames(g Geometry) []string {
	key := [3]int{g.Channels, g.RanksPerChannel, g.BanksPerRank}
	if names, ok := bankNames.Load(key); ok {
		return names.([]string)
	}
	names := make([]string, g.Banks())
	for i := range names {
		bank := i % g.BanksPerRank
		rank := (i / g.BanksPerRank) % g.RanksPerChannel
		ch := i / (g.BanksPerRank * g.RanksPerChannel)
		names[i] = fmt.Sprintf("reram.ch%d.rank%d.bank%d.writes", ch, rank, bank)
	}
	actual, _ := bankNames.LoadOrStore(key, names)
	return actual.([]string)
}

// SetColumnTracking switches per-bitline LRS maintenance on or off. It
// must be called before the first touch: rows materialized while
// tracking was off are not counted. Tracking defaults to on; simulation
// runs disable it for every scheme but BLP.
func (s *Store) SetColumnTracking(on bool) { s.trackCols = on }

// UseShiftedDatapath puts the store behind LADDER-Est's intra-line bit
// shifting datapath (Est and Hybrid call it at construction). Resident
// data written before the simulation window was stored through the same
// datapath, so resident rows are stored shifted. The store also keeps
// per-wordline counters over the reverse-shifted bit layout, turning
// MaxRowCounterUnshifted from a 64-block reverse-shift scan into a
// counter max. Like SetColumnTracking it must be called before the first
// touch.
func (s *Store) UseShiftedDatapath() { s.shifted = true }

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
// The store builds each row privately and retains it only in its own
// view; UseResident shares rows built once across stores instead, and
// is what every simulation run uses. SetResident serves code that
// drives a lone store (benchmark probes, tests).
func (s *Store) SetResident(level int, seed uint64) {
	s.resident = nil
	if level > 0 {
		s.resident = &Resident{level: level, seed: seed}
	}
}

// UseResident takes resident data from a shared Resident (see NewResident):
// the store reads each row it touches through a view of r's image, so
// stores of one (level, seed) build every row once between them. A nil r
// disables prefill.
func (s *Store) UseResident(r *Resident) { s.resident = r }

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

// countRow returns the per-wordline LRS counters of a row's blocks.
// Per-byte popcounts accumulate in byte lanes, flushed to the uint16
// counters before a lane can carry.
func countRow(data *[BlocksPerRow]bits.Line) [BlockSize]uint16 {
	var counters [BlockSize]uint16
	var acc [BlockSize / 8]uint64
	for b := range data {
		for w := 0; w < BlockSize/8; w++ {
			acc[w] += perBytePop(binary.LittleEndian.Uint64(data[b][w*8:]))
		}
		if (b+1)%laneFlushBlocks == 0 || b == BlocksPerRow-1 {
			flushLanes(&counters, &acc)
		}
	}
	return counters
}

// EnsureRow materializes (with its resident content, when resident data
// is enabled) a global wordline group (Geometry.GlobalRow). The memory
// controller calls this on first reference so metadata initialization
// observes resident content.
func (s *Store) EnsureRow(globalRow uint64) { s.ensure(globalRow) }

// ensure returns the row's view, materializing it on first touch: the
// view starts from the row's image and its counters.
func (s *Store) ensure(key uint64) *rowState {
	if r := s.rows[key]; r != nil {
		return r
	}
	if s.mem == nil {
		panic(errRecycled)
	}
	img := s.image(key)
	r := s.mem.views.next()
	*r = rowState{img: img, counters: img.counters, unshifted: img.unshifted}
	s.rows[key] = r
	if s.trackCols {
		g := s.cols[s.matGroup(key)]
		if g == nil {
			g = s.mem.groups.next()
			*g = colGroup{rows: g.rows[:0]}
			s.cols[s.matGroup(key)] = g
		}
		g.add(r)
	}
	return r
}

// image returns the row's resident image in the store's stored form.
func (s *Store) image(key uint64) *image {
	if s.resident == nil {
		return zeroImage
	}
	return s.resident.image(key, s.shifted)
}

// Holds reports whether the store has materialized a global wordline
// group (EnsureRow, a write, RowCodes). A row it does not hold stores
// exactly its resident image.
func (s *Store) Holds(globalRow uint64) bool { return s.row(globalRow) != nil }

// matGroup returns the mat group of a global row.
func (s *Store) matGroup(key uint64) uint64 { return key / uint64(s.geom.MatRows) }

// row fetches (without allocating) the state of a global row.
func (s *Store) row(globalRow uint64) *rowState {
	r := s.rows[globalRow]
	if r == nil && s.mem == nil {
		panic(errRecycled)
	}
	return r
}

// Read returns the stored content of the block at loc.
func (s *Store) Read(loc Location) bits.Line {
	r := s.row(s.geom.GlobalRow(loc))
	if r == nil {
		return bits.Line{}
	}
	return *r.block(loc.Slot)
}

// ReadLogical returns the block at loc as written to WriteFNW: the
// stored content with its flip mask undone.
func (s *Store) ReadLogical(loc Location) bits.Line {
	r := s.row(s.geom.GlobalRow(loc))
	if r == nil {
		return bits.Line{}
	}
	stored := *r.block(loc.Slot)
	bits.FNWDecode(&stored, r.flips[loc.Slot])
	return stored
}

// WriteFNW stores FNW-encoded content at loc together with its flip
// mask (see bits.ClassicFNW) and returns the previous stored content.
func (s *Store) WriteFNW(loc Location, data bits.Line, flips uint8) (old bits.Line) {
	r, old := s.write(loc, data)
	r.flips[loc.Slot] = flips
	return old
}

// Write stores new content at a line address and returns the previous
// content: it decodes the address and delegates to WriteAt.
func (s *Store) Write(line uint64, data bits.Line) (bits.Line, error) {
	loc, err := s.geom.Decode(line)
	if err != nil {
		return bits.Line{}, err
	}
	return s.WriteAt(loc, data), nil
}

// WriteAt stores new content at loc and returns the previous content,
// leaving the block's flip mask as it was. Per-wordline counters are
// updated incrementally.
func (s *Store) WriteAt(loc Location, data bits.Line) (old bits.Line) {
	_, old = s.write(loc, data)
	return old
}

// addDelta adds, per wordline, the LRS cells next holds minus those old
// held, 8 wordlines (one 8-byte word of the block) at a time.
func addDelta(counters *[BlockSize]uint16, old, next *bits.Line) {
	for w := 0; w < BlockSize; w += 8 {
		o, n := binary.LittleEndian.Uint64(old[w:]), binary.LittleEndian.Uint64(next[w:])
		if o == n {
			continue
		}
		po, pn := perBytePop(o), perBytePop(n)
		for k := 0; k < 8; k++ {
			// Wrapping uint16 arithmetic adds a negative delta exactly.
			counters[w+k] += uint16(pn>>(8*k)&0xff) - uint16(po>>(8*k)&0xff)
		}
	}
}

// write is WriteAt, returning the row it wrote as well.
func (s *Store) write(loc Location, data bits.Line) (r *rowState, old bits.Line) {
	key := s.geom.GlobalRow(loc)
	r = s.ensure(key)
	old = *r.block(loc.Slot)
	addDelta(&r.counters, &old, &data)
	if s.trackCols {
		// Update the selected bitlines' counts for the changed bits, once
		// a readout has counted them.
		if sc := s.cols[s.matGroup(key)].counted(loc.Slot); sc != nil {
			for m := 0; m < BlockSize; m++ {
				changed := old[m] ^ data[m]
				for v := changed; v != 0; v &= v - 1 {
					k := mbits.TrailingZeros8(v)
					if data[m]&(1<<uint(k)) != 0 {
						sc[m][k]++
					} else {
						sc[m][k]--
					}
				}
			}
		}
	}
	if s.shifted {
		rawOld := bits.Unshifted(old, loc.Slot)
		rawNew := bits.Unshifted(data, loc.Slot)
		addDelta(&r.unshifted, &rawOld, &rawNew)
	}
	if r.own[loc.Slot] == nil {
		// The block's first write: the view stops reading the image.
		r.own[loc.Slot] = s.mem.blocks.next()
	}
	*r.own[loc.Slot] = data
	if r.writes == 0 {
		s.writtenRows++
	}
	r.writes++
	s.totalWrites++
	s.bankWrites[(loc.Channel*s.geom.RanksPerChannel+loc.Rank)*s.geom.BanksPerRank+loc.Bank].Inc()
	return r, old
}

// MaxSelectedColCount returns the worst per-bitline LRS count among the
// bitlines a write to loc would select (8 bitlines in each of the 64
// mats). This models the BLP baseline's bitline profiling readout.
func (s *Store) MaxSelectedColCount(loc Location) int {
	g := s.cols[s.matGroup(s.geom.GlobalRow(loc))]
	if g == nil {
		if s.mem == nil {
			panic(errRecycled)
		}
		return 0
	}
	m := uint16(0)
	for _, mat := range g.slot(loc.Slot, s.mem) {
		for _, c := range mat {
			if c > m {
				m = c
			}
		}
	}
	return int(m)
}

// maxOf returns the largest of a row's per-wordline counters.
func maxOf(cs *[BlockSize]uint16) int {
	m := uint16(0)
	for _, c := range cs {
		if c > m {
			m = c
		}
	}
	return int(m)
}

// MaxRowCounterUnshifted returns C^w_lrs of a global wordline group as it
// would be if every stored block were reverse-shifted into
// LADDER-Basic's raw bit layout. The Figure 15 estimation-accuracy study
// compares LADDER-Est's estimates (taken over shifted data) against
// exactly this quantity.
func (s *Store) MaxRowCounterUnshifted(globalRow uint64) int {
	r := s.row(globalRow)
	switch {
	case r == nil:
		return 0
	case s.shifted:
		return maxOf(&r.unshifted)
	}
	return scanUnshifted(r)
}

// scanUnshifted derives the row's maximum unshifted-layout wordline
// count by reverse-shifting every block.
func scanUnshifted(r *rowState) int {
	var counters [BlockSize]int
	for b := 0; b < BlocksPerRow; b++ {
		raw := bits.Unshifted(*r.block(b), b)
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
	return max
}

// RowCounters returns a copy of the exact per-wordline LRS counters of a
// global wordline group.
func (s *Store) RowCounters(globalRow uint64) [BlockSize]uint16 {
	r := s.row(globalRow)
	if r == nil {
		return [BlockSize]uint16{}
	}
	return r.counters
}

// RowCodes returns the partial-counter code of every block of a global
// wordline group, materializing the group as EnsureRow does:
// bits.EncodeLowPrecision codes when low is set, bits.EncodePartial codes
// otherwise. Blocks the store has not written take their image's
// precomputed codes; written blocks are encoded. LADDER-Est and
// LADDER-Hybrid build their boot-time metadata from these.
func (s *Store) RowCodes(globalRow uint64, low bool) [BlocksPerRow]uint8 {
	r := s.ensure(globalRow)
	codes := *r.img.blockCodes(low)
	for slot, blk := range r.own {
		switch {
		case blk == nil:
		case low:
			codes[slot] = bits.EncodeLowPrecision(blk)
		default:
			codes[slot] = bits.EncodePartial(blk)
		}
	}
	return codes
}

// ImageCodes returns the partial-counter codes of a global wordline
// group's resident image, the codes RowCodes returns until the store
// writes the row, without materializing the row: a scheme that defers
// reading an unwritten row's codes reads them here, whatever the store
// has written to the row since.
func (s *Store) ImageCodes(globalRow uint64, low bool) [BlocksPerRow]uint8 {
	if s.mem == nil {
		panic(errRecycled)
	}
	return *s.image(globalRow).blockCodes(low)
}

// MaxRowCounter returns the exact worst-wordline LRS count C^w_lrs of a
// global wordline group — the quantity the Oracle scheme is allowed to
// read for free and LADDER must estimate.
func (s *Store) MaxRowCounter(globalRow uint64) int {
	r := s.row(globalRow)
	if r == nil {
		return 0
	}
	return maxOf(&r.counters)
}

// RecountRow recomputes a global wordline group's counters from the
// stored data, for validation against the incremental ones.
func (s *Store) RecountRow(globalRow uint64) [BlockSize]uint16 {
	var out [BlockSize]uint16
	r := s.row(globalRow)
	if r == nil {
		return out
	}
	for b := 0; b < BlocksPerRow; b++ {
		for m, c := range r.block(b) {
			out[m] += uint16(mbits.OnesCount8(c))
		}
	}
	return out
}

// RowWrites returns how many block writes landed in a global wordline
// group.
func (s *Store) RowWrites(globalRow uint64) uint64 {
	r := s.row(globalRow)
	if r == nil {
		return 0
	}
	return r.writes
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
