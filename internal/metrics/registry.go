package metrics

import (
	"fmt"
	"sort"
	"sync"
)

// Registry is a per-run collection of named instruments. Get-or-create
// accessors are mutex-protected so setup can happen from any goroutine;
// the instruments themselves are lock-free and must each be observed
// from a single goroutine (one simulation run is single-threaded, and
// RunGrid gives every run its own Registry, merging their snapshots
// afterwards).
//
// Naming convention: dot-separated "layer.subject.metric" with the unit
// as the final suffix where one applies, e.g.
// "memctrl.ch0.reset_latency_ns". docs/METRICS.md catalogs every name
// the simulator emits.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	grids      map[string]*Grid
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		grids:      make(map[string]*Grid),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns nil (and nil instruments no-op), so un-instrumented
// layers need no branches beyond the ones already in the instrument
// methods.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use (nil on a nil
// registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use; later calls return the existing instrument and
// ignore bounds (first creation wins). Invalid bounds on first creation
// panic — bucket layouts are compile-time decisions, not data.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		var err error
		h, err = NewHistogram(bounds)
		if err != nil {
			panic(fmt.Sprintf("metrics: histogram %q: %v", name, err))
		}
		r.histograms[name] = h
	}
	return h
}

// Grid returns the named rows×cols grid, creating it on first use;
// later calls return the existing instrument and ignore the shape.
// Invalid shapes on first creation panic.
func (r *Registry) Grid(name string, rows, cols int) *Grid {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.grids[name]
	if !ok {
		var err error
		g, err = NewGrid(rows, cols)
		if err != nil {
			panic(fmt.Sprintf("metrics: grid %q: %v", name, err))
		}
		r.grids[name] = g
	}
	return g
}

// SetCounter overwrites the named counter with an absolute value —
// end-of-run exports of quantities another layer already accumulated
// (store write totals, retired instructions).
func (r *Registry) SetCounter(name string, v uint64) {
	if c := r.Counter(name); c != nil {
		c.v = v
	}
}

// Snapshot freezes every instrument into the serializable form embedded
// in run reports. A nil registry snapshots as empty (never nil maps), so
// reports marshal uniformly.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{
			Counters:   map[string]uint64{},
			Gauges:     map[string]GaugeSnapshot{},
			Histograms: map[string]HistogramSnapshot{},
			Grids:      map[string]GridSnapshot{},
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]GaugeSnapshot, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
		Grids:      make(map[string]GridSnapshot, len(r.grids)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		gs := GaugeSnapshot{Samples: g.n}
		if g.n > 0 {
			gs.Last, gs.Min, gs.Max, gs.sum = g.last, g.min, g.max, g.sum
			gs.Mean = g.sum / float64(g.n)
		}
		s.Gauges[name] = gs
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	for name, g := range r.grids {
		s.Grids[name] = g.Snapshot()
	}
	return s
}

// Snapshot is the serializable view of a Registry, embedded in run
// reports (JSON field names are the stable schema; see docs/METRICS.md).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Grids      map[string]GridSnapshot      `json:"grids"`
}

// Merge returns the union of s and o, snapshots of two registries —
// the fleet-wide view of a grid's runs. Counters add, gauges combine
// their sample moments, histograms merge as HistogramSnapshot.Merge
// does and grids add element-wise; an instrument in only one input is
// copied. A histogram or grid whose shape differs between the inputs is
// an error. Neither input changes, though the result may share slices
// with them.
//
// Both inputs must come from Registry.Snapshot (or earlier Merges of
// such snapshots): a gauge's merged Mean divides exact sample sums
// that JSON-decoded or hand-built snapshots lack, so their gauge
// means come out wrong.
func (s Snapshot) Merge(o Snapshot) (Snapshot, error) {
	out := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]GaugeSnapshot, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
		Grids:      make(map[string]GridSnapshot, len(s.Grids)),
	}
	for _, in := range [2]Snapshot{s, o} {
		for name, v := range in.Counters {
			out.Counters[name] += v
		}
		for name, g := range in.Gauges {
			out.Gauges[name] = out.Gauges[name].merge(g)
		}
		for name, h := range in.Histograms {
			m, err := out.Histograms[name].Merge(h)
			if err != nil {
				return Snapshot{}, fmt.Errorf("metrics: merging histogram %q: %w", name, err)
			}
			out.Histograms[name] = m
		}
		for name, g := range in.Grids {
			m, err := out.Grids[name].merge(g)
			if err != nil {
				return Snapshot{}, fmt.Errorf("metrics: merging grid %q: %w", name, err)
			}
			out.Grids[name] = m
		}
	}
	return out, nil
}

// Sub returns the activity between prev and s, two snapshots of one
// registry with prev taken first: every counter and histogram in s minus
// its value in prev (an instrument absent from prev counts from zero).
// Gauges and grids are not differenced; their maps stay nil.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		d.Counters[name] = v - prev.Counters[name]
	}
	for name, h := range s.Histograms {
		d.Histograms[name] = h.Sub(prev.Histograms[name])
	}
	return d
}

// GaugeSnapshot is a frozen Gauge: the sample moments of an instantaneous
// quantity.
type GaugeSnapshot struct {
	Last    float64 `json:"last"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
	Samples uint64  `json:"samples"`
	// sum is the exact sample sum, so a merged mean divides exact sums
	// as a live gauge's does. It is not serialized, so a decoded or
	// hand-built snapshot has sum 0 and merges to a wrong Mean; see
	// Snapshot.Merge.
	sum float64
}

// merge combines two gauges' sample moments. The merged Last keeps s's
// unless s had no samples (order across merged runs is not
// meaningful).
func (s GaugeSnapshot) merge(o GaugeSnapshot) GaugeSnapshot {
	if o.Samples == 0 {
		return s
	}
	if s.Samples == 0 {
		return o
	}
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	s.sum += o.sum
	s.Samples += o.Samples
	s.Mean = s.sum / float64(s.Samples)
	return s
}

// HistogramSnapshot is a frozen Histogram: bucket bounds and counts plus
// the derived summary statistics. Counts has len(Bounds)+1 entries; the
// final entry is the overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Mean   float64   `json:"mean"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
}

// Quantile computes the p-quantile from the frozen buckets: nearest
// rank, linear interpolation inside the containing bucket, clamped to
// the observed min/max. Empty snapshots return 0.
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := quantileRank(p, s.Count)
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum < rank {
			continue
		}
		lo := s.Min
		if i > 0 && s.Bounds[i-1] > lo {
			lo = s.Bounds[i-1]
		}
		hi := s.Max
		if i < len(s.Bounds) && s.Bounds[i] < hi {
			hi = s.Bounds[i]
		}
		if hi < lo {
			hi = lo
		}
		// Position of the rank inside this bucket, in (0, 1].
		frac := float64(rank-(cum-c)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return s.Max
}

// Sub returns the distribution observed between prev and s, two
// snapshots of one histogram with prev taken first (prev may be the zero
// value). Counts, Count and Sum are exact; the delta's Min/Max are the
// edges of its outermost nonzero buckets (s's own Min/Max for the first
// and overflow buckets), so its quantiles interpolate inside those
// buckets. No new observations give the zero value.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	if s.Count == prev.Count {
		return HistogramSnapshot{}
	}
	d := HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: make([]uint64, len(s.Counts)),
		Count:  s.Count - prev.Count,
		Sum:    s.Sum - prev.Sum,
	}
	first, last := -1, -1
	for i := range s.Counts {
		var p uint64
		if i < len(prev.Counts) {
			p = prev.Counts[i]
		}
		d.Counts[i] = s.Counts[i] - p
		if d.Counts[i] > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	d.Min = s.Min
	if first > 0 {
		d.Min = s.Bounds[first-1]
	}
	if last >= 0 && last < len(s.Bounds) {
		d.Max = s.Bounds[last]
	} else {
		d.Max = s.Max
	}
	d.Mean = d.Sum / float64(d.Count)
	d.P50, d.P95, d.P99 = d.Quantile(0.50), d.Quantile(0.95), d.Quantile(0.99)
	return d
}

// Merge adds another snapshot with identical bounds into this one and
// recomputes the derived statistics — used to combine per-channel
// histograms into a system-wide view at report time. Bounds must match
// even when a side has no samples; the zero value, which has no bounds,
// merges as the identity.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) (HistogramSnapshot, error) {
	if s.Bounds == nil {
		return o, nil
	}
	if o.Bounds == nil {
		return s, nil
	}
	if len(s.Bounds) != len(o.Bounds) {
		return s, fmt.Errorf("metrics: merging snapshots with %d vs %d bounds", len(s.Bounds), len(o.Bounds))
	}
	for i := range s.Bounds {
		if s.Bounds[i] != o.Bounds[i] {
			return s, fmt.Errorf("metrics: merging snapshots with mismatched bound %d (%v vs %v)", i, s.Bounds[i], o.Bounds[i])
		}
	}
	if o.Count == 0 {
		return s, nil
	}
	if s.Count == 0 {
		return o, nil
	}
	out := HistogramSnapshot{
		Bounds: append([]float64(nil), s.Bounds...),
		Counts: append([]uint64(nil), s.Counts...),
		Count:  s.Count + o.Count,
		Sum:    s.Sum + o.Sum,
		Min:    s.Min,
		Max:    s.Max,
	}
	for i := range out.Counts {
		out.Counts[i] += o.Counts[i]
	}
	if o.Min < out.Min {
		out.Min = o.Min
	}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	out.Mean = out.Sum / float64(out.Count)
	out.P50 = out.Quantile(0.50)
	out.P95 = out.Quantile(0.95)
	out.P99 = out.Quantile(0.99)
	return out, nil
}

// GridSnapshot is a frozen Grid.
type GridSnapshot struct {
	Rows   int        `json:"rows"`
	Cols   int        `json:"cols"`
	Counts [][]uint64 `json:"counts"`
}

// merge adds another grid of identical shape element-wise. The zero
// value, on either side, merges as the identity.
func (g GridSnapshot) merge(o GridSnapshot) (GridSnapshot, error) {
	if g.Rows == 0 {
		return o, nil
	}
	if o.Rows == 0 {
		return g, nil
	}
	if g.Rows != o.Rows || g.Cols != o.Cols {
		return g, fmt.Errorf("metrics: merging %d×%d grid into %d×%d", o.Rows, o.Cols, g.Rows, g.Cols)
	}
	out := GridSnapshot{Rows: g.Rows, Cols: g.Cols, Counts: make([][]uint64, g.Rows)}
	for r := range out.Counts {
		out.Counts[r] = make([]uint64, g.Cols)
		for c := range out.Counts[r] {
			out.Counts[r][c] = g.Counts[r][c] + o.Counts[r][c]
		}
	}
	return out, nil
}

// SortedNames returns the union of all instrument names in the snapshot,
// sorted — the stable iteration order for text rendering.
func (s Snapshot) SortedNames() []string {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms)+len(s.Grids))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	for n := range s.Grids {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
