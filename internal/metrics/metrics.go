// Package metrics provides the allocation-light instrumentation layer
// the simulator threads through every level of the stack: counters,
// sampled gauges, fixed-bucket latency histograms and 2-D count grids,
// collected in a per-run Registry and serialized as a Snapshot inside
// the run report (see internal/sim's Report and docs/METRICS.md).
//
// Design constraints, in order:
//
//   - Hot-path cost. Instruments are plain structs updated with a few
//     integer/float operations: no locks, no allocation and no interface
//     dispatch on the observation path. A simulation run is
//     single-goroutine, so instruments need no atomics.
//   - Optional wiring. Every observation method is safe on a nil
//     receiver, so a layer constructed without instrumentation (unit
//     tests, library embedding) pays one predictable branch.
//   - Mergeability. RunGrid executes independent runs on a worker pool;
//     each run owns a private Registry and the grid merges their
//     snapshots into one fleet-wide view afterwards (counters add,
//     histograms add bucket-wise, gauges combine their sample moments).
//
// Instruments are write-only: a Snapshot is the one form anything reads
// or merges.
package metrics

import (
	"fmt"
	"math"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v uint64
}

// Inc adds one. Safe on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Gauge tracks a sampled instantaneous quantity (queue occupancy, depth)
// through its sample moments: last, min, max, sum and sample count. The
// mean over samples approximates the time-average when sampling is
// periodic.
type Gauge struct {
	last     float64
	min, max float64
	sum      float64
	n        uint64
}

// Observe records one sample. Safe on a nil receiver.
func (g *Gauge) Observe(v float64) {
	if g == nil {
		return
	}
	if g.n == 0 || v < g.min {
		g.min = v
	}
	if g.n == 0 || v > g.max {
		g.max = v
	}
	g.last = v
	g.sum += v
	g.n++
}

// Histogram is a fixed-bucket distribution: bounds[i] is the inclusive
// upper edge of bucket i, and one extra overflow bucket catches values
// above the last bound. Quantiles interpolate linearly inside a bucket
// and are clamped by the exact observed min/max, so single-sample and
// narrow distributions report exact values.
type Histogram struct {
	bounds   []float64
	counts   []uint64
	count    uint64
	sum      float64
	min, max float64
}

// NewHistogram builds a histogram over the given strictly increasing
// bucket upper bounds. The bounds slice is retained (callers should not
// mutate it); histograms created from the same bounds expression are
// mergeable.
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("metrics: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("metrics: histogram bounds must increase (bound %d: %v after %v)", i, bounds[i], bounds[i-1])
		}
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}, nil
}

// LinearBounds returns n upper bounds first, first+width, ...,
// first+(n-1)*width — the fixed-resolution buckets used for the RESET
// latency window.
func LinearBounds(first, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = first + float64(i)*width
	}
	return out
}

// ExponentialBounds returns n upper bounds first, first*factor, ... —
// power-law buckets for long-tailed quantities.
func ExponentialBounds(first, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := first
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++ // overflow
}

// Snapshot freezes the histogram into its serializable form.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
	}
	if h.count > 0 {
		s.Min, s.Max = h.min, h.max
		s.Mean = h.sum / float64(h.count)
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// Grid is a fixed 2-D count matrix, used for per-timing-table-cell write
// counts (rows = wordline-location buckets, cols = bitline-location
// buckets). Out-of-range indices clamp to the edge, matching the timing
// table's own clamping lookup.
type Grid struct {
	rows, cols int
	counts     []uint64
}

// NewGrid builds a rows×cols grid.
func NewGrid(rows, cols int) (*Grid, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("metrics: grid dimensions must be positive (%d×%d)", rows, cols)
	}
	return &Grid{rows: rows, cols: cols, counts: make([]uint64, rows*cols)}, nil
}

// Inc adds one to cell (r, c), clamping indices into range. Safe on a
// nil receiver.
func (g *Grid) Inc(r, c int) {
	if g == nil {
		return
	}
	if r < 0 {
		r = 0
	} else if r >= g.rows {
		r = g.rows - 1
	}
	if c < 0 {
		c = 0
	} else if c >= g.cols {
		c = g.cols - 1
	}
	g.counts[r*g.cols+c]++
}

// Snapshot freezes the grid into its serializable form.
func (g *Grid) Snapshot() GridSnapshot {
	if g == nil {
		return GridSnapshot{}
	}
	// The rows share one copy of the counts, each capped at its end.
	flat := append([]uint64(nil), g.counts...)
	s := GridSnapshot{Rows: g.rows, Cols: g.cols, Counts: make([][]uint64, g.rows)}
	for r := 0; r < g.rows; r++ {
		s.Counts[r] = flat[r*g.cols : (r+1)*g.cols : (r+1)*g.cols]
	}
	return s
}

// quantileRank converts a probability into a 1-based rank over count
// observations (the nearest-rank definition, so p=0 is the minimum and
// p=1 the maximum).
func quantileRank(p float64, count uint64) uint64 {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(count)))
	if rank == 0 {
		rank = 1
	}
	return rank
}
