package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
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

// mustMerge merges two snapshots, failing the test on an error.
func mustMerge(t *testing.T, a, b Snapshot) Snapshot {
	t.Helper()
	m, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	var g *Gauge
	g.Observe(3)
	var h *Histogram
	h.Observe(3)
	if s := h.Snapshot(); s.Count != 0 || s.Quantile(0.5) != 0 || s.Mean != 0 || s.Bounds != nil {
		t.Fatalf("nil histogram should snapshot empty: %+v", s)
	}
	var gr *Grid
	gr.Inc(1, 1)
	if s := gr.Snapshot(); s.Rows != 0 || s.Counts != nil {
		t.Fatalf("nil grid should snapshot empty: %+v", s)
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
	s := mustHist(t, LinearBounds(10, 10, 5)).Snapshot()
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if q := s.Quantile(p); q != 0 {
			t.Fatalf("empty histogram quantile(%v) = %v, want 0", p, q)
		}
	}
	if s.Count != 0 || s.P50 != 0 || nonzeroBuckets(s) != 0 {
		t.Fatalf("empty snapshot: %+v", s)
	}
}

// nonzeroBuckets counts the buckets of s holding at least one
// observation.
func nonzeroBuckets(s HistogramSnapshot) int {
	n := 0
	for _, c := range s.Counts {
		if c > 0 {
			n++
		}
	}
	return n
}

func TestHistogramSingleSample(t *testing.T) {
	h := mustHist(t, LinearBounds(10, 10, 5))
	h.Observe(23)
	s := h.Snapshot()
	for _, p := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if q := s.Quantile(p); q != 23 {
			t.Fatalf("single-sample quantile(%v) = %v, want 23", p, q)
		}
	}
	if s.Min != 23 || s.Max != 23 || s.Mean != 23 {
		t.Fatalf("single-sample stats: min=%v max=%v mean=%v", s.Min, s.Max, s.Mean)
	}
	if got := nonzeroBuckets(s); got != 1 {
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
	s := h.Snapshot()
	cases := []struct{ p, want float64 }{
		{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1},
	}
	for _, c := range cases {
		got := s.Quantile(c.p)
		if math.Abs(got-c.want) > 10 {
			t.Fatalf("quantile(%v) = %v, want within 10 of %v", c.p, got, c.want)
		}
	}
	if s.Quantile(1) != 100 {
		t.Fatalf("p100 = %v, want exactly the max", s.Quantile(1))
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
	if q := s.Quantile(1); q != 999 {
		t.Fatalf("p100 = %v, want 999 (overflow clamps to observed max)", q)
	}
}

// histSnapshot is a snapshot of a registry holding one histogram "h"
// over bounds with the given observations.
func histSnapshot(bounds []float64, vs ...float64) Snapshot {
	r := NewRegistry()
	h := r.Histogram("h", bounds)
	for _, v := range vs {
		h.Observe(v)
	}
	return r.Snapshot()
}

func TestHistogramMerge(t *testing.T) {
	bounds := LinearBounds(10, 10, 5)
	var lo, hi []float64
	for i := 1; i <= 50; i++ {
		lo = append(lo, float64(i))
		hi = append(hi, float64(i+50))
	}
	a := mustMerge(t, histSnapshot(bounds, lo...), histSnapshot(bounds, hi...))
	h := a.Histograms["h"]
	if h.Count != 100 || h.Min != 1 || h.Max != 100 {
		t.Fatalf("merged stats: count=%d min=%v max=%v", h.Count, h.Min, h.Max)
	}
	if got := h.P50; math.Abs(got-50) > 10 {
		t.Fatalf("merged p50 = %v", got)
	}
	// Merging an empty histogram must not disturb min/max.
	if h := mustMerge(t, a, histSnapshot(bounds)).Histograms["h"]; h.Min != 1 || h.Count != 100 {
		t.Fatal("empty merge changed stats")
	}
	// Merging into an empty histogram adopts the source's stats.
	if h := mustMerge(t, histSnapshot(bounds), a).Histograms["h"]; h.Count != 100 || h.Min != 1 || h.Max != 100 {
		t.Fatalf("merge into empty: count=%d min=%v max=%v", h.Count, h.Min, h.Max)
	}
	// Shape mismatches must be rejected.
	if _, err := a.Merge(histSnapshot(LinearBounds(10, 10, 3), 1)); err == nil {
		t.Fatal("bound-count mismatch should fail")
	}
	if _, err := a.Merge(histSnapshot(LinearBounds(11, 10, 5), 1)); err == nil {
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

// gaugeSnapshot is a snapshot of a registry holding one gauge "g"
// with the given samples.
func gaugeSnapshot(vs ...float64) Snapshot {
	r := NewRegistry()
	g := r.Gauge("g")
	for _, v := range vs {
		g.Observe(v)
	}
	return r.Snapshot()
}

func TestGaugeMoments(t *testing.T) {
	s := gaugeSnapshot(3, 1, 4, 1, 5)
	if g := s.Gauges["g"]; g.Samples != 5 || g.Max != 5 || g.Mean != 2.8 {
		t.Fatalf("gauge: n=%d max=%v mean=%v", g.Samples, g.Max, g.Mean)
	}
	g := mustMerge(t, gaugeSnapshot(10), s).Gauges["g"]
	if g.Samples != 6 || g.Max != 10 || g.Min != 1 || g.Last != 10 {
		t.Fatalf("merged gauge: %+v", g)
	}
	// The merged mean divides the exact sample sums, not the inputs'
	// rounded means times their counts.
	a, b := []float64{0.1, 0.2, 0.6}, []float64{0.1, 0.2}
	sa, sb := a[0]+a[1]+a[2], b[0]+b[1]
	g = mustMerge(t, gaugeSnapshot(a...), gaugeSnapshot(b...)).Gauges["g"]
	if want := (sa + sb) / 5; g.Mean != want {
		t.Fatalf("merged mean = %v, want %v", g.Mean, want)
	}
}

func TestGridClampAndMerge(t *testing.T) {
	r := NewRegistry()
	g := r.Grid("m", 2, 3)
	g.Inc(0, 0)
	g.Inc(5, 5) // clamps to (1, 2)
	g.Inc(-1, -1)
	s := r.Snapshot()
	if got := fmt.Sprint(s.Grids["m"].Counts); got != "[[2 0 0] [0 0 1]]" {
		t.Fatalf("grid counts: %s", got)
	}
	o := NewRegistry()
	o.Grid("m", 2, 3).Inc(1, 2)
	if got := mustMerge(t, s, o.Snapshot()).Grids["m"].Counts[1][2]; got != 2 {
		t.Fatalf("merged grid cell = %d, want 2", got)
	}
	bad := NewRegistry()
	bad.Grid("m", 3, 3)
	if _, err := s.Merge(bad.Snapshot()); err == nil {
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
	s := mustMerge(t, r.Snapshot(), o.Snapshot())
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
	if _, err := s.Merge(bad.Snapshot()); err == nil {
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

// TestRegistryMergeDisjoint merges snapshots of two registries with no
// instruments in common: every instrument of each kind must appear in
// the result with its values intact (grid-report aggregation relies on this when cells
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
	s := mustMerge(t, r.Snapshot(), o.Snapshot())
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
// empty-histogram edge case in merged registry snapshots: an instrument that
// was created but never observed must neither poison the receiver's
// stats nor block adoption of the source's.
func TestRegistryMergeEmptyHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", LinearBounds(10, 10, 5)).Observe(15)

	// Source has the histogram declared with zero observations.
	o := NewRegistry()
	o.Histogram("h", LinearBounds(10, 10, 5))
	h := mustMerge(t, r.Snapshot(), o.Snapshot()).Histograms["h"]
	if h.Count != 1 || h.Min != 15 || h.Max != 15 {
		t.Fatalf("empty source disturbed stats: %+v", h)
	}

	// Receiver empty, source populated: stats adopt wholesale.
	e := NewRegistry()
	e.Histogram("h", LinearBounds(10, 10, 5))
	h = mustMerge(t, e.Snapshot(), r.Snapshot()).Histograms["h"]
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
	g := mustMerge(t, r.Snapshot(), o.Snapshot()).Gauges["g"]
	if g.Samples != 2 || g.Min != 3 || g.Max != 5 || g.Mean != 4 {
		t.Fatalf("zero-sample source disturbed gauge: %+v", g)
	}

	e := NewRegistry()
	e.Gauge("g")
	g = mustMerge(t, e.Snapshot(), r.Snapshot()).Gauges["g"]
	if g.Samples != 2 || g.Min != 3 || g.Max != 5 {
		t.Fatalf("zero-sample receiver did not adopt: %+v", g)
	}
}

// TestRegistryMergeNil pins the nil-registry contract: a nil registry
// snapshots as empty, and an empty or zero snapshot merges as the
// identity in either direction, into non-nil maps.
func TestRegistryMergeNil(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Histogram("h", LinearBounds(1, 1, 4)).Observe(2)
	var n *Registry
	for _, empty := range []Snapshot{n.Snapshot(), {}} {
		for _, s := range []Snapshot{
			mustMerge(t, r.Snapshot(), empty),
			mustMerge(t, empty, r.Snapshot()),
		} {
			if s.Counters["c"] != 3 || s.Histograms["h"].Count != 1 || len(s.SortedNames()) != 2 {
				t.Fatalf("empty merge changed the snapshot: %+v", s)
			}
		}
	}
	if s := mustMerge(t, Snapshot{}, Snapshot{}); s.Counters == nil || s.Gauges == nil ||
		s.Histograms == nil || s.Grids == nil {
		t.Fatalf("merged zero snapshots should have non-nil maps: %+v", s)
	}
}

// TestSnapshotMergeEdges pins three contracts of Snapshot.Merge: an
// instrument absent from one side is copied with its shape, histogram
// bounds must match even when a side has no samples, and neither input
// changes.
func TestSnapshotMergeEdges(t *testing.T) {
	bounds := LinearBounds(10, 10, 5)
	t.Run("absent histogram keeps its bounds", func(t *testing.T) {
		h := mustMerge(t, NewRegistry().Snapshot(), histSnapshot(bounds)).Histograms["h"]
		if h.Count != 0 || fmt.Sprint(h.Bounds) != fmt.Sprint(bounds) || len(h.Counts) != len(bounds)+1 {
			t.Fatalf("copied histogram = %+v, want empty over %v", h, bounds)
		}
	})
	t.Run("mismatched bounds with an empty side", func(t *testing.T) {
		empty, full := histSnapshot(LinearBounds(10, 10, 4)), histSnapshot(bounds, 15)
		if _, err := empty.Merge(full); err == nil {
			t.Fatal("empty receiver with other bounds should fail")
		}
		if _, err := full.Merge(empty); err == nil {
			t.Fatal("empty source with other bounds should fail")
		}
	})
	t.Run("zero-value grid on either side is the identity", func(t *testing.T) {
		r := NewRegistry()
		r.Grid("m", 2, 2).Inc(1, 1)
		full, zero := r.Snapshot(), Snapshot{Grids: map[string]GridSnapshot{"m": {}}}
		for _, got := range []Snapshot{mustMerge(t, full, zero), mustMerge(t, zero, full)} {
			if !reflect.DeepEqual(got.Grids["m"], full.Grids["m"]) {
				t.Fatalf("merged grid = %+v, want %+v", got.Grids["m"], full.Grids["m"])
			}
		}
	})
	t.Run("inputs unchanged", func(t *testing.T) {
		snap := func(v float64) Snapshot {
			r := NewRegistry()
			r.Counter("c").Add(uint64(v))
			r.Gauge("g").Observe(v)
			r.Histogram("h", bounds).Observe(v)
			r.Grid("m", 2, 2).Inc(int(v)%2, 0)
			return r.Snapshot()
		}
		a, b := snap(15), snap(42)
		if _, err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, snap(15)) || !reflect.DeepEqual(b, snap(42)) {
			t.Fatalf("merge changed an input:\n a = %+v\n b = %+v", a, b)
		}
	})
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
