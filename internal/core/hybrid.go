package core

import (
	"ladder/internal/bits"
	"ladder/internal/reram"
)

// Hybrid is the partial-counter scheme behind LADDER-Est (Section 4.1)
// and LADDER-Hybrid (Section 4.2). The stale-memory-block read is
// eliminated by bounding C^w_lrs with packed partial counters: per data
// block, four 2-bit codes of the worst byte in each mat subgroup, one
// metadata block per 4 KB page. Intra-line bit-level shifting (on unless
// disabled for Figure 15a's no-shift arm) spreads clustered hot bytes
// across the mats of each chip before the counters are taken.
//
// Hybrid adds multi-granularity counters: wordline groups whose crossbar
// row sits near the write driver (low IR drop, hence latency-insensitive
// to content) keep only two 1-bit partial counters per block, and four
// such pages share one metadata block, improving metadata locality and
// cutting maintenance traffic. An 8-bit precision control register
// (Layout.LowPrecisionRows) selects the low-precision region; with the
// register at 0 every row keeps the Est layout, which is LADDER-Est.
type Hybrid struct {
	*ladderBase
	shifting bool
	// pending maps a low-precision key to the quarters of its line left
	// deferred when the line was last synthesized (bit q for quarter q):
	// quarters whose wordline group the store did not hold, so that they
	// stand for the group's resident image codes. A deferred quarter is
	// filled in from the image the first time the scheme reads or
	// modifies it (line), in the cached and the persisted copy alike, so
	// the set survives eviction and refill.
	pending map[uint64]uint8
}

// NewHybridCache builds LADDER-Hybrid (the paper's 128 low-precision
// rows, shifting on) over a metadata cache of the given configuration
// (DefaultMetaCacheConfig is the paper's).
func NewHybridCache(env *Env, cacheCfg MetaCacheConfig) (*Hybrid, error) {
	return newHybrid(env, DefaultLowPrecisionRows, true, cacheCfg)
}

// NewEstCache builds LADDER-Est, Hybrid with no low-precision rows, with
// or without intra-line shifting.
func NewEstCache(env *Env, shifting bool, cacheCfg MetaCacheConfig) (*Hybrid, error) {
	return newHybrid(env, 0, shifting, cacheCfg)
}

func newHybrid(env *Env, lowRows int, shifting bool, cacheCfg MetaCacheConfig) (*Hybrid, error) {
	b, err := newLadderBase(env, cacheCfg)
	if err != nil {
		return nil, err
	}
	b.layout.LowPrecisionRows = lowRows
	s := &Hybrid{ladderBase: b, shifting: shifting}
	// Boot-time metadata: partial counters of the resident blocks the key
	// covers, at whichever precision it selects.
	b.cache.SetInitializer(s.initLine)
	if shifting {
		// Data resident from before the simulation window was stored
		// through the same shifting datapath, and every dispatch samples
		// the unshifted-layout C^w_lrs (Figure 15).
		env.Store.UseShiftedDatapath()
	}
	return s, nil
}

// estInitLine synthesizes an Est-layout metadata line from the stored
// content of the wordline group.
func estInitLine(env *Env, globalRow uint64) MetaLine {
	var ml MetaLine
	codes := env.Store.RowCodes(globalRow, false)
	copy(ml[:], codes[:])
	return ml
}

// initLine synthesizes a metadata line from stored content: Est layout
// for high-precision keys, packed 1-bit counters of the four covered
// pages for low-precision keys. Used at boot-time initialization and to
// reconcile after a verify failure. A quarter whose wordline group the
// store does not hold is left deferred (see pending): the group still
// holds its resident image, so reading the image's codes later gives
// what reading them now would, without drawing a row no write may reach.
func (s *Hybrid) initLine(key uint64) MetaLine {
	if key&hybridLowKeyBit == 0 {
		return estInitLine(s.env, key)
	}
	var ml MetaLine
	var deferred uint8
	for q := range 4 {
		row, ok := s.quarterRow(key, q)
		if !ok {
			continue // a group past the end of memory
		}
		if !s.env.Store.Holds(row) {
			deferred |= 1 << q
			continue
		}
		setQuarter(&ml, q, s.env.Store.RowCodes(row, true))
	}
	if deferred == 0 {
		delete(s.pending, key)
		return ml
	}
	if s.pending == nil {
		s.pending = make(map[uint64]uint8)
	}
	s.pending[key] = deferred
	return ml
}

// quarterRow returns the global wordline group of a low-precision key's
// quarter q, false for a group past the end of memory.
func (s *Hybrid) quarterRow(key uint64, q int) (uint64, bool) {
	loc, err := s.env.Geom.Decode(s.layout.LowGroupLines(key)[q])
	if err != nil {
		return 0, false
	}
	return s.env.Geom.GlobalRow(loc), true
}

// setQuarter packs a page's 1-bit counter pairs into quarter q of a
// low-precision line.
func setQuarter(ml *MetaLine, q int, codes [reram.BlocksPerRow]uint8) {
	for slot, c := range codes {
		bi, sh := lowSlotBits(q, slot)
		ml[bi] |= (c & 3) << sh
	}
}

// line returns the cached metadata line of req, nil while it is absent
// or filling, with req's quarter filled in when the line is
// low-precision and that quarter is deferred. Every read or update of a
// low-precision line's counters goes through it.
func (s *Hybrid) line(req *WriteRequest) *MetaLine {
	key := req.MetaKeys[0]
	line := s.cache.Data(key)
	if line == nil || key&hybridLowKeyBit == 0 {
		return line
	}
	q := s.layout.LowGroupIndex(req.Line)
	if s.pending[key]&(1<<q) == 0 {
		return line
	}
	row, _ := s.quarterRow(key, q)
	var quarter MetaLine
	setQuarter(&quarter, q, s.env.Store.ImageCodes(row, true))
	s.cache.Amend(key, 16*q, quarter[16*q:16*q+16]) // see lowSlotBits
	if s.pending[key] &^= 1 << q; s.pending[key] == 0 {
		delete(s.pending, key)
	}
	return line
}

// CrashRecover implements CrashRecoverable: the conservative correction
// saturates every line, deferred quarters included.
func (s *Hybrid) CrashRecover() {
	s.ladderBase.CrashRecover()
	clear(s.pending)
}

// SetLowPrecisionRows overrides the precision control register (the
// number of driver-near rows using 1-bit counters).
func (s *Hybrid) SetLowPrecisionRows(n int) { s.layout.LowPrecisionRows = n }

func (s *Hybrid) keys(req *WriteRequest) []uint64 {
	key, _ := s.layout.HybridKey(req.Line, s.env.Geom.GlobalRow(req.Loc), req.Loc.WL)
	// Reuse the request's MetaKeys backing: with pooled requests the
	// per-enqueue key derivation allocates nothing.
	return append(req.MetaKeys[:0], key)
}

func (s *Hybrid) lowPrecision(req *WriteRequest) bool {
	return req.Loc.WL < s.layout.LowPrecisionRows
}

// Enqueue implements Scheme: shift, take partial counters, acquire the
// metadata line. No SMB read is needed: the new partial counters replace
// the old ones outright.
func (s *Hybrid) Enqueue(req *WriteRequest) ([]AuxRead, []MetaWriteback) {
	req.Payload = payloadFor(req.Data, req.Loc.Slot, s.shifting)
	if s.lowPrecision(req) {
		req.Partial = bits.EncodeLowPrecision(&req.Payload)
	} else {
		req.Partial = bits.EncodePartial(&req.Payload)
	}
	return s.acquire(req, s.keys(req))
}

// SMBArrived implements Scheme (partial counters never need SMBs).
func (s *Hybrid) SMBArrived(*WriteRequest, bits.Line) {}

// RetrySpill implements Scheme.
func (s *Hybrid) RetrySpill() ([]AuxRead, []MetaWriteback) { return s.retrySpill(s.keys) }

// Ready implements Scheme.
func (s *Hybrid) Ready(req *WriteRequest) bool { return !req.WaitMeta }

// lowSlotBits locates a block's 2-bit low-precision counter within the
// shared metadata line: quarter q (the page's position in its group of
// four) spans bytes [16q, 16q+16), two bits per block.
func lowSlotBits(quarter, slot int) (byteIdx int, shift uint) {
	bit := quarter*128 + slot*2
	return bit / 8, uint(bit % 8)
}

// estimate derives the C^w_lrs bound for the request's wordline group
// from the cached metadata line, substituting the in-flight request's
// fresh counters for its own slot (the write changes that block's
// contribution).
func (s *Hybrid) estimate(req *WriteRequest) (int, bool) {
	line := s.line(req)
	if line == nil {
		return 0, false
	}
	var packed [reram.BlocksPerRow]uint8
	if !s.lowPrecision(req) {
		copy(packed[:], line[:])
		packed[req.Loc.Slot] = req.Partial
		return bits.EstimateCwLRS(packed[:]), true
	}
	quarter := s.layout.LowGroupIndex(req.Line)
	for slot := 0; slot < reram.BlocksPerRow; slot++ {
		b, sh := lowSlotBits(quarter, slot)
		packed[slot] = (line[b] >> sh) & 3
	}
	packed[req.Loc.Slot] = req.Partial
	return bits.EstimateCwLRSLow(packed[:]), true
}

// Latency implements Scheme.
func (s *Hybrid) Latency(req *WriteRequest) float64 {
	c, ok := s.estimate(req)
	if !ok {
		return s.env.Tables.WorstNs
	}
	s.recordCounterDiff(req, c, s.shifting)
	req.Clrs = c
	return s.env.Tables.WL.Lookup(req.Loc.WL, req.Loc.BLHigh, c)
}

// Complete implements Scheme: store the block's fresh partial counters in
// the metadata line.
func (s *Hybrid) Complete(req *WriteRequest, old, stored bits.Line) []MetaWriteback {
	if line := s.line(req); line != nil {
		if s.lowPrecision(req) {
			quarter := s.layout.LowGroupIndex(req.Line)
			b, sh := lowSlotBits(quarter, req.Loc.Slot)
			line[b] = line[b]&^(3<<sh) | (req.Partial&3)<<sh
		} else {
			line[req.Loc.Slot] = req.Partial
		}
		s.cache.MarkDirty(req.MetaKeys[0])
	}
	s.release(req)
	return nil
}

// DecodeRead implements Scheme: reverse the bit shifting on processor
// reads.
func (s *Hybrid) DecodeRead(loc reram.Location, payload bits.Line) bits.Line {
	if !s.shifting {
		return payload
	}
	return bits.Unshifted(payload, loc.Slot)
}

// WriteRetry implements RetryAware: a verify failure means the cached
// partial counters mis-margined the row (stale or over-conservative
// bounds), so the metadata line is re-synthesized from the stored bits
// the verify read exposed, at whichever precision the key selects.
// Subsequent estimates for the row then carry the tightest bound the
// encoding can express.
func (s *Hybrid) WriteRetry(req *WriteRequest, attempt int) {
	key := req.MetaKeys[0]
	if line := s.cache.Data(key); line != nil {
		*line = s.initLine(key)
		s.cache.MarkDirty(key)
	}
}
