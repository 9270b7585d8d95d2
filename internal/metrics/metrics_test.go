package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

func mustHist(t *testing.T, bounds []float64) *Histogram {
	t.Helper()
	h, err := NewHistogram(bounds)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Observe(3)
	if g.Samples() != 0 || g.Mean() != 0 || g.Max() != 0 {
		t.Fatal("nil gauge should be empty")
	}
	var h *Histogram
	h.Observe(3)
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram should be empty")
	}
	var gr *Grid
	gr.Inc(1, 1)
	if gr.Total() != 0 || gr.At(1, 1) != 0 {
		t.Fatal("nil grid should be empty")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil ||
		r.Histogram("x", []float64{1}) != nil || r.Grid("x", 1, 1) != nil {
		t.Fatal("nil registry should hand out nil instruments")
	}
	if s := r.Snapshot(); s.Counters == nil || len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot should be empty but non-nil")
	}
}

func TestHistogramBoundsValidation(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Fatal("empty bounds should fail")
	}
	if _, err := NewHistogram([]float64{1, 1}); err == nil {
		t.Fatal("non-increasing bounds should fail")
	}
	if _, err := NewHistogram([]float64{2, 1}); err == nil {
		t.Fatal("decreasing bounds should fail")
	}
}

func TestHistogramEmptyQuantiles(t *testing.T) {
	h := mustHist(t, LinearBounds(10, 10, 5))
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if q := h.Quantile(p); q != 0 {
			t.Fatalf("empty histogram quantile(%v) = %v, want 0", p, q)
		}
	}
	s := h.Snapshot()
	if s.Count != 0 || s.P50 != 0 || s.NonzeroBuckets() != 0 {
		t.Fatalf("empty snapshot: %+v", s)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := mustHist(t, LinearBounds(10, 10, 5))
	h.Observe(23)
	for _, p := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if q := h.Quantile(p); q != 23 {
			t.Fatalf("single-sample quantile(%v) = %v, want 23", p, q)
		}
	}
	if h.Min() != 23 || h.Max() != 23 || h.Mean() != 23 {
		t.Fatalf("single-sample stats: min=%v max=%v mean=%v", h.Min(), h.Max(), h.Mean())
	}
	if got := h.Snapshot().NonzeroBuckets(); got != 1 {
		t.Fatalf("nonzero buckets = %d, want 1", got)
	}
}

func TestHistogramQuantilesUniform(t *testing.T) {
	// 100 samples 1..100 into width-10 buckets: quantiles should land
	// within one bucket width of the exact order statistic.
	h := mustHist(t, LinearBounds(10, 10, 10))
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1},
	}
	for _, c := range cases {
		got := h.Quantile(c.p)
		if math.Abs(got-c.want) > 10 {
			t.Fatalf("quantile(%v) = %v, want within 10 of %v", c.p, got, c.want)
		}
	}
	if h.Quantile(1) != 100 {
		t.Fatalf("p100 = %v, want exactly the max", h.Quantile(1))
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := mustHist(t, LinearBounds(10, 10, 2)) // bounds 10, 20
	h.Observe(5)
	h.Observe(15)
	h.Observe(999)
	s := h.Snapshot()
	if len(s.Counts) != 3 {
		t.Fatalf("counts len = %d, want bounds+1", len(s.Counts))
	}
	if s.Counts[2] != 1 {
		t.Fatalf("overflow count = %d, want 1", s.Counts[2])
	}
	if q := h.Quantile(1); q != 999 {
		t.Fatalf("p100 = %v, want 999 (overflow clamps to observed max)", q)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := mustHist(t, LinearBounds(10, 10, 5))
	b := mustHist(t, LinearBounds(10, 10, 5))
	for i := 1; i <= 50; i++ {
		a.Observe(float64(i))
	}
	for i := 51; i <= 100; i++ {
		b.Observe(float64(i))
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 100 || a.Min() != 1 || a.Max() != 100 {
		t.Fatalf("merged stats: count=%d min=%v max=%v", a.Count(), a.Min(), a.Max())
	}
	if got := a.Quantile(0.5); math.Abs(got-50) > 10 {
		t.Fatalf("merged p50 = %v", got)
	}
	// Merging an empty histogram must not disturb min/max.
	if err := a.Merge(mustHist(t, LinearBounds(10, 10, 5))); err != nil {
		t.Fatal(err)
	}
	if a.Min() != 1 || a.Count() != 100 {
		t.Fatal("empty merge changed stats")
	}
	// Merging into an empty histogram adopts the source's stats.
	c := mustHist(t, LinearBounds(10, 10, 5))
	if err := c.Merge(a); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 100 || c.Min() != 1 || c.Max() != 100 {
		t.Fatalf("merge into empty: count=%d min=%v max=%v", c.Count(), c.Min(), c.Max())
	}
	// Shape mismatches must be rejected.
	if err := a.Merge(mustHist(t, LinearBounds(10, 10, 3))); err == nil {
		t.Fatal("bound-count mismatch should fail")
	}
	if err := a.Merge(mustHist(t, LinearBounds(11, 10, 5))); err == nil {
		t.Fatal("bound-value mismatch should fail")
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := mustHist(t, LinearBounds(10, 10, 5))
	b := mustHist(t, LinearBounds(10, 10, 5))
	a.Observe(5)
	b.Observe(45)
	merged, err := a.Snapshot().Merge(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if merged.Count != 2 || merged.Min != 5 || merged.Max != 45 {
		t.Fatalf("merged snapshot: %+v", merged)
	}
	if merged.P50 <= 0 || merged.P99 > 45 {
		t.Fatalf("merged quantiles: p50=%v p99=%v", merged.P50, merged.P99)
	}
	empty := HistogramSnapshot{}
	if m, err := empty.Merge(a.Snapshot()); err != nil || m.Count != 1 {
		t.Fatalf("empty-receiver merge: %v %+v", err, m)
	}
}

func TestGaugeMoments(t *testing.T) {
	g := &Gauge{}
	for _, v := range []float64{3, 1, 4, 1, 5} {
		g.Observe(v)
	}
	if g.Samples() != 5 || g.Max() != 5 || g.Mean() != 2.8 {
		t.Fatalf("gauge: n=%d max=%v mean=%v", g.Samples(), g.Max(), g.Mean())
	}
	o := &Gauge{}
	o.Observe(10)
	o.merge(g)
	if o.Samples() != 6 || o.Max() != 10 {
		t.Fatalf("merged gauge: n=%d max=%v", o.Samples(), o.Max())
	}
}

func TestGridClampAndMerge(t *testing.T) {
	g, err := NewGrid(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	g.Inc(0, 0)
	g.Inc(5, 5) // clamps to (1, 2)
	g.Inc(-1, -1)
	if g.At(0, 0) != 2 || g.At(1, 2) != 1 || g.Total() != 3 {
		t.Fatalf("grid counts: %+v total=%d", g.Snapshot(), g.Total())
	}
	o, _ := NewGrid(2, 3)
	o.Inc(1, 2)
	if err := g.Merge(o); err != nil {
		t.Fatal(err)
	}
	if g.At(1, 2) != 2 {
		t.Fatal("grid merge failed")
	}
	bad, _ := NewGrid(3, 3)
	if err := g.Merge(bad); err == nil {
		t.Fatal("shape mismatch should fail")
	}
}

func TestRegistryGetOrCreateAndMerge(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter not memoized")
	}
	r.Counter("a").Add(2)
	r.Gauge("g").Observe(7)
	r.Histogram("h", LinearBounds(1, 1, 4)).Observe(2.5)
	r.Grid("m", 2, 2).Inc(0, 1)
	r.SetCounter("set", 42)

	o := NewRegistry()
	o.Counter("a").Add(3)
	o.Counter("only_o").Inc()
	o.Histogram("h", LinearBounds(1, 1, 4)).Observe(3.5)
	o.Grid("m", 2, 2).Inc(0, 1)
	if err := r.Merge(o); err != nil {
		t.Fatal(err)
	}
	s := r.Snapshot()
	if s.Counters["a"] != 5 || s.Counters["only_o"] != 1 || s.Counters["set"] != 42 {
		t.Fatalf("merged counters: %+v", s.Counters)
	}
	if s.Histograms["h"].Count != 2 {
		t.Fatalf("merged histogram count = %d", s.Histograms["h"].Count)
	}
	if s.Grids["m"].Counts[0][1] != 2 {
		t.Fatalf("merged grid: %+v", s.Grids["m"])
	}
	// Mismatched bounds across registries must surface an error.
	bad := NewRegistry()
	bad.Histogram("h", LinearBounds(2, 2, 4)).Observe(1)
	if err := r.Merge(bad); err == nil {
		t.Fatal("mismatched histogram bounds should fail the merge")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Gauge("g").Observe(1.5)
	r.Histogram("h", ExponentialBounds(1, 2, 6)).Observe(9)
	r.Grid("m", 2, 2).Inc(1, 1)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["c"] != 7 || back.Histograms["h"].Count != 1 || back.Grids["m"].Counts[1][1] != 1 {
		t.Fatalf("round trip lost data: %s", raw)
	}
	if len(back.SortedNames()) != 4 {
		t.Fatalf("names: %v", back.SortedNames())
	}
}

func TestBoundsHelpers(t *testing.T) {
	lin := LinearBounds(32, 32, 3)
	if lin[0] != 32 || lin[1] != 64 || lin[2] != 96 {
		t.Fatalf("linear bounds: %v", lin)
	}
	exp := ExponentialBounds(1, 10, 3)
	if exp[0] != 1 || exp[1] != 10 || exp[2] != 100 {
		t.Fatalf("exponential bounds: %v", exp)
	}
}

// TestRegistryMergeDisjoint merges two registries with no instruments in
// common: every instrument of each kind must appear in the receiver with
// its values intact (grid-report aggregation relies on this when cells
// instrument different subsystems).
func TestRegistryMergeDisjoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("left.c").Add(2)
	r.Gauge("left.g").Observe(1)

	o := NewRegistry()
	o.Counter("right.c").Add(7)
	o.Gauge("right.g").Observe(9)
	o.Histogram("right.h", LinearBounds(1, 1, 4)).Observe(2.5)
	o.Grid("right.m", 2, 2).Inc(1, 1)
	if err := r.Merge(o); err != nil {
		t.Fatal(err)
	}
	s := r.Snapshot()
	if s.Counters["left.c"] != 2 || s.Counters["right.c"] != 7 {
		t.Fatalf("disjoint counters: %+v", s.Counters)
	}
	if s.Gauges["right.g"].Last != 9 || s.Gauges["right.g"].Samples != 1 {
		t.Fatalf("adopted gauge: %+v", s.Gauges["right.g"])
	}
	if s.Histograms["right.h"].Count != 1 || s.Histograms["right.h"].Min != 2.5 {
		t.Fatalf("adopted histogram: %+v", s.Histograms["right.h"])
	}
	if s.Grids["right.m"].Counts[1][1] != 1 {
		t.Fatalf("adopted grid: %+v", s.Grids["right.m"])
	}
}

// TestRegistryMergeEmptyHistogram pins both directions of the
// empty-histogram edge case at the registry level: an instrument that
// was created but never observed must neither poison the receiver's
// stats nor block adoption of the source's.
func TestRegistryMergeEmptyHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", LinearBounds(10, 10, 5)).Observe(15)

	// Source has the histogram declared with zero observations.
	o := NewRegistry()
	o.Histogram("h", LinearBounds(10, 10, 5))
	if err := r.Merge(o); err != nil {
		t.Fatal(err)
	}
	h := r.Snapshot().Histograms["h"]
	if h.Count != 1 || h.Min != 15 || h.Max != 15 {
		t.Fatalf("empty source disturbed stats: %+v", h)
	}

	// Receiver empty, source populated: stats adopt wholesale.
	e := NewRegistry()
	e.Histogram("h", LinearBounds(10, 10, 5))
	if err := e.Merge(r); err != nil {
		t.Fatal(err)
	}
	h = e.Snapshot().Histograms["h"]
	if h.Count != 1 || h.Min != 15 || h.Mean != 15 {
		t.Fatalf("empty receiver did not adopt: %+v", h)
	}
}

// TestRegistryMergeZeroSampleGauge checks that a declared-but-unobserved
// gauge merges as a no-op in either direction instead of dragging
// min/max toward zero.
func TestRegistryMergeZeroSampleGauge(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g").Observe(5)
	r.Gauge("g").Observe(3)

	o := NewRegistry()
	o.Gauge("g") // zero samples
	if err := r.Merge(o); err != nil {
		t.Fatal(err)
	}
	g := r.Snapshot().Gauges["g"]
	if g.Samples != 2 || g.Min != 3 || g.Max != 5 || g.Mean != 4 {
		t.Fatalf("zero-sample source disturbed gauge: %+v", g)
	}

	e := NewRegistry()
	e.Gauge("g")
	if err := e.Merge(r); err != nil {
		t.Fatal(err)
	}
	g = e.Snapshot().Gauges["g"]
	if g.Samples != 2 || g.Min != 3 || g.Max != 5 {
		t.Fatalf("zero-sample receiver did not adopt: %+v", g)
	}
}

// TestRegistryMergeNil pins the nil-registry contract.
func TestRegistryMergeNil(t *testing.T) {
	r := NewRegistry()
	if err := r.Merge(nil); err == nil {
		t.Fatal("merging a nil registry should fail")
	}
	var n *Registry
	if err := n.Merge(r); err == nil {
		t.Fatal("merging into a nil registry should fail")
	}
}

// TestSnapshotSub pins the snapshot difference: counters and histograms
// subtract exactly, instruments new since prev count from zero, and a
// histogram with no new observations diffs to the zero value.
func TestSnapshotSub(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	quiet := r.Histogram("quiet", []float64{10, 20})
	quiet.Observe(5)
	busy := r.Histogram("busy", []float64{10, 20, 30})
	busy.Observe(5)
	prev := r.Snapshot()

	r.Counter("a").Add(4)
	r.Counter("b").Inc()
	busy.Observe(15)
	busy.Observe(25)
	d := r.Snapshot().Sub(prev)

	if d.Counters["a"] != 4 || d.Counters["b"] != 1 {
		t.Fatalf("counter deltas = %v, want a=4 b=1", d.Counters)
	}
	if q := d.Histograms["quiet"]; q.Count != 0 || q.Sum != 0 {
		t.Fatalf("unchanged histogram diffed to %+v", q)
	}
	b := d.Histograms["busy"]
	if b.Count != 2 || b.Sum != 40 || b.Mean != 20 {
		t.Fatalf("busy delta count=%d sum=%v mean=%v, want 2/40/20", b.Count, b.Sum, b.Mean)
	}
	if got, want := fmt.Sprint(b.Counts), "[0 1 1 0]"; got != want {
		t.Fatalf("busy delta buckets = %s, want %s", got, want)
	}
	// The delta's extremes are its outermost nonzero bucket edges.
	if b.Min != 10 || b.Max != 30 || b.P50 < 10 || b.P99 > 30 {
		t.Fatalf("busy delta min=%v max=%v p50=%v p99=%v", b.Min, b.Max, b.P50, b.P99)
	}
}
