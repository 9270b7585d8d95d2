package core

import (
	"ladder/internal/bits"
	"ladder/internal/reram"
)

// Est is the LADDER-Est scheme (Section 4.1): the stale-memory-block read
// is eliminated by bounding C^w_lrs with packed partial counters — per
// data block, four 2-bit codes of the worst byte in each mat subgroup.
// One metadata block holds the counters of a whole 4 KB page. Intra-line
// bit-level shifting (on by default) spreads clustered hot bytes across
// the mats of each chip before the counters are taken.
type Est struct {
	*ladderBase
	// shifting can be disabled to reproduce Figure 15a's no-shift arm.
	shifting bool
}

// NewEstCache builds the scheme over a metadata cache of the given
// configuration (DefaultMetaCacheConfig is the paper's), with or without
// intra-line shifting.
func NewEstCache(env *Env, shifting bool, cacheCfg MetaCacheConfig) (*Est, error) {
	b, err := newLadderBase(env, cacheCfg)
	if err != nil {
		return nil, err
	}
	// Boot-time metadata: partial counters of every resident block in the
	// covered page.
	b.cache.SetInitializer(func(key uint64) MetaLine {
		return estInitLine(env, key)
	})
	if shifting {
		// Every dispatch samples the unshifted-layout C^w_lrs (Figure 15);
		// incremental counters keep that a max instead of a 64-block scan.
		env.Store.TrackUnshiftedCounters()
	}
	return &Est{ladderBase: b, shifting: shifting}, nil
}

// estInitLine synthesizes an Est-layout metadata line from the stored
// content of the wordline group (boot-time initialization).
func estInitLine(env *Env, globalRow uint64) MetaLine {
	var ml MetaLine
	base := env.Geom.RowBaseLine(globalRow)
	if err := env.Store.EnsureRow(base); err != nil {
		return ml
	}
	for slot := 0; slot < reram.BlocksPerRow; slot++ {
		stored, err := env.Store.Read(base + uint64(slot))
		if err != nil {
			return ml
		}
		ml[slot] = bits.EncodePartial(&stored)
	}
	return ml
}

// Name implements Scheme.
func (s *Est) Name() string {
	if !s.shifting {
		return "LADDER-Est(noshift)"
	}
	return "LADDER-Est"
}

func (s *Est) keys(req *WriteRequest) []uint64 {
	// Reuse the request's MetaKeys backing: with pooled requests the
	// per-enqueue key derivation allocates nothing.
	return append(req.MetaKeys[:0], s.layout.EstKey(s.env.Geom.GlobalRow(req.Loc)))
}

// Enqueue implements Scheme: shift, take partial counters, acquire the
// page's metadata line. No SMB read is needed — the new partial counters
// replace the old ones outright.
func (s *Est) Enqueue(req *WriteRequest) ([]AuxRead, []MetaWriteback) {
	req.Payload = payloadFor(req.Data, req.Loc.Slot, s.shifting)
	req.Partial = bits.EncodePartial(&req.Payload)
	return s.acquire(req, s.keys(req))
}

// SMBArrived implements Scheme (Est never requests SMBs).
func (s *Est) SMBArrived(*WriteRequest, bits.Line) {}

// MetaArrived implements Scheme.
func (s *Est) MetaArrived(key uint64) { s.metaArrived(key) }

// RetrySpill implements Scheme.
func (s *Est) RetrySpill() ([]AuxRead, []MetaWriteback) { return s.retrySpill(s.keys) }

// Ready implements Scheme.
func (s *Est) Ready(req *WriteRequest) bool { return !req.WaitMeta }

// estimate derives the C^w_lrs bound from the cached metadata line,
// substituting the in-flight request's fresh counters for its own slot
// (the write changes that block's contribution).
func (s *Est) estimate(req *WriteRequest) (int, bool) {
	line := s.cache.Data(req.MetaKeys[0])
	if line == nil {
		return 0, false
	}
	var packed [reram.BlocksPerRow]uint8
	copy(packed[:], line[:])
	packed[req.Loc.Slot] = req.Partial
	return bits.EstimateCwLRS(packed[:]), true
}

// Latency implements Scheme.
func (s *Est) Latency(req *WriteRequest) float64 {
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
func (s *Est) Complete(req *WriteRequest, old, stored bits.Line) []MetaWriteback {
	if line := s.cache.Data(req.MetaKeys[0]); line != nil {
		line[req.Loc.Slot] = req.Partial
		s.cache.MarkDirty(req.MetaKeys[0])
	}
	s.release(req)
	return nil
}

// DecodeRead implements Scheme: reverse the bit shifting on processor
// reads.
func (s *Est) DecodeRead(line uint64, payload bits.Line) bits.Line {
	if !s.shifting {
		return payload
	}
	loc, err := s.env.Geom.Decode(line)
	if err != nil {
		return payload
	}
	return bits.Unshifted(payload, loc.Slot)
}

// UseConstrainedFNW implements Scheme.
func (s *Est) UseConstrainedFNW() bool { return true }

// CrashRecover implements CrashRecoverable.
func (s *Est) CrashRecover() { s.crashRecover() }

// WriteRetry implements RetryAware: a verify failure means the cached
// partial counters mis-margined the row — stale or over-conservative
// bounds — so the line is re-synthesized from the stored bits the
// verify read exposed. Subsequent estimates for the row then carry the
// tightest bound the 2-bit encoding can express.
func (s *Est) WriteRetry(req *WriteRequest, attempt int) {
	key := req.MetaKeys[0]
	if line := s.cache.Data(key); line != nil {
		*line = estInitLine(s.env, key)
		s.cache.MarkDirty(key)
	}
}
