package timeline

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"slices"
	"strconv"
	"testing"

	"ladder/internal/fault"
	"ladder/internal/metrics"
	"ladder/internal/remap"
)

// sampleAt drives the sampler through the boundary cycles interval-1,
// 2*interval-1, ... the engine observer hook would fire at.
func sampleAt(s *Sampler, interval uint64, boundaries int) {
	for i := 1; i <= boundaries; i++ {
		s.Sample(uint64(i)*interval - 1)
	}
}

// TestCounterUnchangedBetweenEpochs pins the compaction rule the
// bounded-memory design depends on: a counter that does not advance
// during a window is absent from that epoch's delta map entirely.
func TestCounterUnchangedBetweenEpochs(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewSampler(Config{Interval: 100, Registry: reg})

	reg.Counter("a").Add(5)
	reg.Counter("b").Add(2)
	s.Sample(99)

	// Second window: only "a" advances.
	reg.Counter("a").Add(3)
	s.Sample(199)

	tl := s.Timeline()
	if len(tl.Epochs) != 2 {
		t.Fatalf("epochs = %d, want 2", len(tl.Epochs))
	}
	e0, e1 := tl.Epochs[0], tl.Epochs[1]
	if e0.Counters["a"] != 5 || e0.Counters["b"] != 2 {
		t.Errorf("epoch 0 counters = %v, want a=5 b=2", e0.Counters)
	}
	if e1.Counters["a"] != 3 {
		t.Errorf("epoch 1 a = %d, want 3", e1.Counters["a"])
	}
	if _, ok := e1.Counters["b"]; ok {
		t.Errorf("epoch 1 carries unchanged counter b: %v", e1.Counters)
	}
}

// TestEpochScalarsFromRegistry pins where the fault and decoder epoch
// fields come from: each is its registry counter's delta over the window,
// so no probe has to re-read the injector or the decoder.
func TestEpochScalarsFromRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewSampler(Config{Interval: 100, Registry: reg})
	reg.Counter(fault.MetricRetries).Add(4)
	reg.Counter(remap.MetricGapMoves).Add(2)
	s.Sample(99)
	reg.Counter(fault.MetricRetries).Add(1)
	reg.Counter(remap.MetricSpareRemaps).Add(3)
	s.Sample(199)
	tl := s.Timeline()
	got := [][3]uint64{}
	for _, e := range tl.Epochs {
		got = append(got, [3]uint64{e.Retries, e.GapMoves, e.SpareRemaps})
	}
	if want := [][3]uint64{{4, 2, 0}, {1, 0, 3}}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("epoch retries/gap moves/spare remaps = %v, want %v", got, want)
	}
}

// TestSeriesAppearingMidRun pins that an instrument created after the
// first boundary shows up as a full-value delta in the epoch it appears
// in — the prev-snapshot lookup treats a missing name as zero.
func TestSeriesAppearingMidRun(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewSampler(Config{Interval: 100, Registry: reg})

	reg.Counter("early").Inc()
	s.Sample(99)

	reg.Counter("late").Add(7)
	reg.Histogram("late_hist", []float64{1, 2, 4}).Observe(1.5)
	s.Sample(199)

	tl := s.Timeline()
	if len(tl.Epochs) != 2 {
		t.Fatalf("epochs = %d, want 2", len(tl.Epochs))
	}
	if _, ok := tl.Epochs[0].Counters["late"]; ok {
		t.Errorf("epoch 0 already carries the late counter")
	}
	if got := tl.Epochs[1].Counters["late"]; got != 7 {
		t.Errorf("epoch 1 late = %d, want 7", got)
	}
	q, ok := tl.Epochs[1].Quantiles["late_hist"]
	if !ok || q.Count != 1 {
		t.Errorf("epoch 1 late_hist = %+v (present=%v), want count 1", q, ok)
	}
}

// TestHistogramBucketDeltas pins the per-epoch histogram diffing: the
// delta distribution covers only the window's observations, and its
// quantiles move with where those observations landed.
func TestHistogramBucketDeltas(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewSampler(Config{Interval: 100, Registry: reg})
	h := reg.Histogram("lat", []float64{10, 20, 40, 80})

	// Window 1: all observations low.
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	s.Sample(99)
	// Window 2: all observations high; the cumulative histogram is now
	// mixed, but the delta must be pure-high.
	for i := 0; i < 10; i++ {
		h.Observe(70)
	}
	s.Sample(199)
	// Window 3: no observations — the histogram must vanish from the map.
	s.Sample(299)

	tl := s.Timeline()
	if len(tl.Epochs) != 3 {
		t.Fatalf("epochs = %d, want 3", len(tl.Epochs))
	}
	q1 := tl.Epochs[0].Quantiles["lat"]
	if q1.Count != 10 || q1.P50 > 10 {
		t.Errorf("epoch 0 lat = %+v, want count 10 with P50 <= 10", q1)
	}
	q2 := tl.Epochs[1].Quantiles["lat"]
	if q2.Count != 10 || q2.P50 <= 40 {
		t.Errorf("epoch 1 lat = %+v, want count 10 with P50 in the (40,80] bucket", q2)
	}
	if _, ok := tl.Epochs[2].Quantiles["lat"]; ok {
		t.Errorf("epoch 2 carries a quantile entry for an idle histogram")
	}
}

// TestDecimationPreservesSums pins the bounded-memory contract: hitting
// capacity halves the series and doubles the effective interval, and
// the per-epoch deltas still sum exactly to the totals.
func TestDecimationPreservesSums(t *testing.T) {
	reg := metrics.NewRegistry()
	probe := Scalars{}
	s := NewSampler(Config{
		Interval: 10,
		Registry: reg,
		Probe:    func(uint64) Scalars { return probe },
	})
	// Three times the capacity: the series decimates twice.
	const boundaries = 3 * DefaultCapacity
	for i := 1; i <= boundaries; i++ {
		reg.Counter("writes").Add(uint64(i))
		probe.Instructions += 100
		s.Sample(uint64(i) * 10)
	}
	tl := s.Timeline()
	if len(tl.Epochs) >= DefaultCapacity {
		t.Errorf("epochs = %d, want < capacity %d", len(tl.Epochs), DefaultCapacity)
	}
	if tl.EffectiveInterval <= tl.Interval {
		t.Errorf("effective interval %d did not widen past %d", tl.EffectiveInterval, tl.Interval)
	}
	var wantWrites uint64
	for i := 1; i <= boundaries; i++ {
		wantWrites += uint64(i)
	}
	var gotWrites, gotInstr uint64
	for _, e := range tl.Epochs {
		gotWrites += e.Counters["writes"]
		gotInstr += e.Instructions
	}
	if gotWrites != wantWrites {
		t.Errorf("sum of counter deltas = %d, want %d", gotWrites, wantWrites)
	}
	if gotInstr != 100*boundaries {
		t.Errorf("sum of instruction deltas = %d, want %d", gotInstr, 100*boundaries)
	}
	// Epochs must tile the run: contiguous, starting at 0.
	var prevEnd uint64
	for i, e := range tl.Epochs {
		if e.Start != prevEnd {
			t.Errorf("epoch %d starts at %d, want %d", i, e.Start, prevEnd)
		}
		prevEnd = e.End
	}
}

// TestMergeDifferentEpochCounts pins grid-cell timeline merging when
// the runs lasted different numbers of epochs: aligned epochs add,
// the longer tail copies through.
func TestMergeDifferentEpochCounts(t *testing.T) {
	mk := func(boundaries int, perEpoch uint64) *Timeline {
		reg := metrics.NewRegistry()
		s := NewSampler(Config{Interval: 100, Registry: reg})
		for i := 1; i <= boundaries; i++ {
			reg.Counter("w").Add(perEpoch)
			s.Sample(uint64(i) * 100)
		}
		return s.Timeline()
	}
	a := mk(3, 5)
	b := mk(5, 2)
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Epochs) != 5 {
		t.Fatalf("merged epochs = %d, want 5", len(m.Epochs))
	}
	for i, e := range m.Epochs {
		want := uint64(7)
		if i >= 3 {
			want = 2
		}
		if e.Counters["w"] != want {
			t.Errorf("merged epoch %d w = %d, want %d", i, e.Counters["w"], want)
		}
	}
	// Inputs untouched.
	if a.Epochs[0].Counters["w"] != 5 || b.Epochs[0].Counters["w"] != 2 {
		t.Errorf("merge mutated its inputs: a=%v b=%v", a.Epochs[0].Counters, b.Epochs[0].Counters)
	}
	// Mismatched intervals refuse to merge.
	c := mk(2, 1)
	c.Interval = 999
	if _, err := Merge(a, c); err == nil {
		t.Errorf("merging mismatched intervals succeeded, want error")
	}
}

// TestMergeDecimatesFinerTimeline pins that merging a decimated (wider
// epoch) timeline with an undecimated one first widens the finer
// series, preserving sums.
func TestMergeDecimatesFinerTimeline(t *testing.T) {
	fine := &Timeline{Schema: Schema, Interval: 10, EffectiveInterval: 10, Epochs: []Epoch{
		{Start: 0, End: 10, Instructions: 1},
		{Start: 10, End: 20, Instructions: 2},
		{Start: 20, End: 30, Instructions: 3},
		{Start: 30, End: 40, Instructions: 4},
	}}
	coarse := &Timeline{Schema: Schema, Interval: 10, EffectiveInterval: 20, Epochs: []Epoch{
		{Start: 0, End: 20, Instructions: 10},
		{Start: 20, End: 40, Instructions: 20},
	}}
	m, err := Merge(fine, coarse)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Epochs) != 2 || m.EffectiveInterval != 20 {
		t.Fatalf("merged: %d epochs at effective %d, want 2 at 20", len(m.Epochs), m.EffectiveInterval)
	}
	if m.Epochs[0].Instructions != 13 || m.Epochs[1].Instructions != 27 {
		t.Errorf("merged instructions = %d, %d; want 13, 27", m.Epochs[0].Instructions, m.Epochs[1].Instructions)
	}
}

// TestFinalizePartialEpoch pins that Finalize closes the trailing
// partial window and is a no-op when nothing accumulated after the
// last boundary.
func TestFinalizePartialEpoch(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewSampler(Config{Interval: 100, Registry: reg})
	reg.Counter("w").Add(4)
	s.Sample(99)
	reg.Counter("w").Add(1)
	s.Finalize(150)
	tl := s.Timeline()
	if len(tl.Epochs) != 2 {
		t.Fatalf("epochs = %d, want 2", len(tl.Epochs))
	}
	last := tl.Epochs[1]
	if last.Start != 99 || last.End != 150 || last.Counters["w"] != 1 {
		t.Errorf("partial epoch = %+v, want [99,150) with w=1", last)
	}
	// Finalize at the boundary itself adds nothing.
	s2 := NewSampler(Config{Interval: 100, Registry: reg})
	s2.Sample(99)
	s2.Finalize(99)
	if n := len(s2.Timeline().Epochs); n != 1 {
		t.Errorf("epochs after no-op finalize = %d, want 1", n)
	}
}

// TestOnEpochCallback pins live streaming: every closed epoch reaches
// the callback, in order.
func TestOnEpochCallback(t *testing.T) {
	reg := metrics.NewRegistry()
	var seen []Epoch
	s := NewSampler(Config{Interval: 50, Registry: reg, OnEpoch: func(e Epoch) { seen = append(seen, e) }})
	sampleAt(s, 50, 3)
	if len(seen) != 3 {
		t.Fatalf("callback saw %d epochs, want 3", len(seen))
	}
	if seen[2].Start != 99 || seen[2].End != 149 {
		t.Errorf("epoch 2 = [%d,%d), want [99,149)", seen[2].Start, seen[2].End)
	}
}

// TestCSVRoundTrip pins the -timeline-out CSV exporter: encoding/csv
// reads back the header and, per epoch, every headline value exactly.
func TestCSVRoundTrip(t *testing.T) {
	tl := &Timeline{Schema: Schema, Interval: 10, EffectiveInterval: 10, Epochs: []Epoch{
		{Start: 0, End: 10, Instructions: 42, IPC: 4.2, StoreWrites: 7, Retries: 1, ReadNJ: 0.125, WriteNJ: 3.5},
		{Start: 10, End: 25, Instructions: 9, IPC: 0.6, GapMoves: 2, SpareRemaps: 1, WriteNJ: 1e-9},
	}}
	var first bytes.Buffer
	if err := tl.WriteCSV(&first); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&first).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(tl.Epochs)+1 || !slices.Equal(rows[0], csvHeader) {
		t.Fatalf("CSV has %d rows and header %q, want %d and %q", len(rows), rows[0], len(tl.Epochs)+1, csvHeader)
	}
	for i, e := range tl.Epochs {
		want := []float64{float64(i), float64(e.Start), float64(e.End), float64(e.Instructions), e.IPC,
			float64(e.StoreWrites), float64(e.Retries), float64(e.GapMoves), float64(e.SpareRemaps), e.ReadNJ, e.WriteNJ}
		for col, cell := range rows[i+1] {
			if got, err := strconv.ParseFloat(cell, 64); err != nil || got != want[col] {
				t.Errorf("epoch %d column %q = %q, want %v", i, csvHeader[col], cell, want[col])
			}
		}
	}
}

// TestJSONRoundTrip pins the JSON exporter: encoding/json reads back the
// schema, the interval and every epoch with its counters.
func TestJSONRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewSampler(Config{Interval: 100, Registry: reg})
	reg.Counter("w").Add(3)
	reg.Histogram("h", []float64{1, 2}).Observe(1)
	s.Sample(100)
	tl := s.Timeline()

	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Timeline
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema {
		t.Errorf("round trip: schema %q, want %q", got.Schema, Schema)
	}
	if got.Interval != tl.Interval || len(got.Epochs) != len(tl.Epochs) {
		t.Errorf("round trip: got interval %d / %d epochs, want %d / %d",
			got.Interval, len(got.Epochs), tl.Interval, len(tl.Epochs))
	}
	if got.Epochs[0].Counters["w"] != 3 {
		t.Errorf("round trip lost counters: %v", got.Epochs[0].Counters)
	}
}

// TestNilSampler pins that every method is safe on a disabled sampler.
func TestNilSampler(t *testing.T) {
	var s *Sampler
	if s = NewSampler(Config{}); s != nil {
		t.Fatalf("zero-interval config built a sampler")
	}
	s.Sample(10)
	s.Finalize(20)
	if s.Timeline() != nil {
		t.Errorf("nil sampler leaked state")
	}
}
