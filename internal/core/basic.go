package core

import (
	"encoding/binary"

	"ladder/internal/bits"
	"ladder/internal/reram"
)

// Basic is the LADDER-Basic scheme (Section 3.3): accurate per-wordline
// LRS counters. Each wordline group owns an LRS-counter group of 64
// counters spanning two metadata blocks; every data write additionally
// reads the stale memory block (SMB) so the controller can derive the
// exact counter deltas.
type Basic struct {
	*ladderBase
	// aux backs Enqueue's auxiliary reads, which the controller consumes
	// before the next Enqueue (see ladderBase.auxScratch).
	aux []AuxRead
}

// NewBasicCache builds the scheme over a metadata cache of the given
// configuration (DefaultMetaCacheConfig is the paper's).
func NewBasicCache(env *Env, cacheCfg MetaCacheConfig) (*Basic, error) {
	b, err := newLadderBase(env, cacheCfg)
	if err != nil {
		return nil, err
	}
	s := &Basic{ladderBase: b}
	// Boot-time metadata: exact counters of the covered wordline group.
	b.cache.SetInitializer(func(key uint64) MetaLine {
		globalRow, half := key/2, int(key%2)
		env.Store.EnsureRow(globalRow)
		counters := env.Store.RowCounters(globalRow)
		var ml MetaLine
		for i := 0; i < 32; i++ {
			binary.LittleEndian.PutUint16(ml[i*2:], counters[half*32+i])
		}
		return ml
	})
	return s, nil
}

func (s *Basic) keys(req *WriteRequest) []uint64 {
	ks := s.layout.BasicKeys(s.env.Geom.GlobalRow(req.Loc))
	// See Hybrid.keys: reuse the request's MetaKeys backing.
	return append(req.MetaKeys[:0], ks[0], ks[1])
}

// Enqueue implements Scheme: Basic stores the line unshifted, needs the
// SMB, and acquires both halves of the counter group.
func (s *Basic) Enqueue(req *WriteRequest) ([]AuxRead, []MetaWriteback) {
	req.Payload = payloadFor(req.Data, req.Loc.Slot, false)
	req.WaitSMB = true
	s.run.SMBReads.Inc()
	metaAux, wbs := s.acquire(req, s.keys(req))
	s.aux = append(append(s.aux[:0], AuxRead{Kind: AuxSMB, Key: req.Line, Loc: req.Loc}), metaAux...)
	return s.aux, wbs
}

// SMBArrived implements Scheme.
func (s *Basic) SMBArrived(req *WriteRequest, stale bits.Line) {
	req.Stale = stale
	req.WaitSMB = false
}

// RetrySpill implements Scheme.
func (s *Basic) RetrySpill() ([]AuxRead, []MetaWriteback) {
	return s.retrySpill(s.keys)
}

// Ready implements Scheme: the paper prioritizes writes with both the SMB
// and the counter lines resident.
func (s *Basic) Ready(req *WriteRequest) bool { return !req.WaitSMB && !req.WaitMeta }

// counterAt reads counter m of a wordline group from its two cached
// metadata lines: line 0 holds counters 0–31, line 1 holds 32–63, stored
// as 16-bit values (capacity-equivalent to the paper's 10-bit packing).
func (s *Basic) counterAt(keys []uint64, m int) int {
	line := s.cache.Data(keys[m/32])
	if line == nil {
		return -1
	}
	off := (m % 32) * 2
	return int(binary.LittleEndian.Uint16(line[off : off+2]))
}

// maxCounter derives C^w_lrs from the cached counter group.
func (s *Basic) maxCounter(keys []uint64) (int, bool) {
	max := 0
	for m := 0; m < reram.BlockSize; m++ {
		c := s.counterAt(keys, m)
		if c < 0 {
			return 0, false
		}
		if c > max {
			max = c
		}
	}
	return max, true
}

// Latency implements Scheme.
func (s *Basic) Latency(req *WriteRequest) float64 {
	c, ok := s.maxCounter(req.MetaKeys)
	if !ok {
		// Metadata unexpectedly absent: fall back to the safe bound.
		return s.env.Tables.WorstNs
	}
	s.recordCounterDiff(req, c, false)
	req.Clrs = c
	return s.env.Tables.WL.Lookup(req.Loc.WL, req.Loc.BLHigh, c)
}

// Complete implements Scheme: with the SMB in hand and Flip-N-Write being
// deterministic, the controller reconstructs the exact stored content, so
// the cached counter group is updated to the device's true per-wordline
// counts.
func (s *Basic) Complete(req *WriteRequest, old, stored bits.Line) []MetaWriteback {
	counters := s.env.Store.RowCounters(s.env.Geom.GlobalRow(req.Loc))
	for half := 0; half < 2; half++ {
		line := s.cache.Data(req.MetaKeys[half])
		if line == nil {
			continue
		}
		for i := 0; i < 32; i++ {
			binary.LittleEndian.PutUint16(line[i*2:], counters[half*32+i])
		}
		s.cache.MarkDirty(req.MetaKeys[half])
	}
	s.release(req)
	return nil
}

// DecodeRead implements Scheme (Basic stores lines unshifted).
func (s *Basic) DecodeRead(_ reram.Location, payload bits.Line) bits.Line { return payload }
