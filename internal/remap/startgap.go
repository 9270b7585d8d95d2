package remap

import (
	"errors"
	"fmt"

	"ladder/internal/reram"
)

// StartGap is a segment-granularity vertical wear leveler in the
// Start-Gap style (Qureshi et al., MICRO 2009): N logical segments live
// in N+1 physical slots; every Period writes the gap slot moves one
// position, slowly rotating the logical-to-physical mapping so
// write-hot segments migrate across the device.
type StartGap struct {
	n      int // logical segments
	gap    int // position of the empty physical slot, 0..n
	start  int // rotation offset, 0..n-1
	period int
	writes int
}

// NewStartGap builds a leveler over n logical segments that moves the gap
// every period writes.
func NewStartGap(n, period int) (*StartGap, error) {
	if n <= 0 {
		return nil, errors.New("remap: segment count must be positive")
	}
	if period <= 0 {
		return nil, errors.New("remap: gap-move period must be positive")
	}
	return &StartGap{n: n, gap: n, period: period}, nil
}

// Phys maps a logical segment to its physical slot (0..n inclusive). An
// out-of-range segment is reported as an error rather than a panic so a
// mis-sized remap cannot crash a long experiment grid mid-run.
func (s *StartGap) Phys(logical int) (int, error) {
	if logical < 0 || logical >= s.n {
		return 0, fmt.Errorf("remap: logical segment %d out of range 0..%d", logical, s.n-1)
	}
	p := (logical + s.start) % s.n
	if p >= s.gap {
		p++
	}
	return p, nil
}

// RecordWrite notes one write; when the period elapses the gap moves.
// It returns true when a gap move happened (the move costs one segment
// copy, which callers may charge as extra write traffic).
func (s *StartGap) RecordWrite() bool {
	s.writes++
	if s.writes < s.period {
		return false
	}
	s.writes = 0
	s.gap--
	if s.gap < 0 {
		s.gap = s.n
		s.start = (s.start + 1) % s.n
	}
	return true
}

// Segments returns the logical segment count.
func (s *StartGap) Segments() int { return s.n }

// gapSegments is the decoder's start-gap segment count over geom in
// segmentRows-row segments.
func gapSegments(geom reram.Geometry, segmentRows int) int {
	return int(geom.Rows()/uint64(segmentRows)) + 1
}

// Rotations returns how many full turns of the start-gap map gapMoves
// gap moves make on a decoder over geom with segmentRows-row segments.
// One turn is segments+1 moves: the gap walks every slot once, after
// which each logical segment sits one slot further on.
func Rotations(geom reram.Geometry, segmentRows int, gapMoves uint64) float64 {
	segments := float64(gapSegments(geom, segmentRows))
	return float64(gapMoves) / (segments + 1)
}
