package tracing

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// resident returns every completed span still in c's ring, oldest
// first, as the Chrome export walks them.
func resident(c *Collector) []Span {
	out := []Span{}
	c.eachDone(func(s *Span) { out = append(out, *s) })
	return out
}

// lifecycle records one full transaction through the collector.
func lifecycle(c *Collector, kind Kind, enq, disp, done uint64) uint64 {
	ref := c.Begin(kind, 0, 1, -1, 42, enq)
	c.Dispatch(ref, disp, 100, 2, 3, 4, true)
	c.End(ref, done)
	return ref
}

func TestSpanLifecycle(t *testing.T) {
	c := NewCollector(Config{SampleEvery: 1, Capacity: 8})
	ref := lifecycle(c, KindDataWrite, 10, 30, 470)
	if ref == 0 {
		t.Fatal("Begin returned 0 with SampleEvery=1")
	}
	spans := c.Recent(8)
	if len(spans) != 1 {
		t.Fatalf("Recent(8) = %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.QueueTicks() != 20 || s.ServiceTicks() != 440 || s.TotalTicks() != 460 {
		t.Errorf("queue/service/total = %d/%d/%d, want 20/440/460",
			s.QueueTicks(), s.ServiceTicks(), s.TotalTicks())
	}
	if s.LatNs != 100 || s.WLBucket != 2 || s.BLBucket != 3 || s.ClrsBucket != 4 || !s.Drain {
		t.Errorf("dispatch parameters not recorded: %+v", s)
	}
	if got := c.Summary(); got.Seen != 1 || got.Sampled != 1 || got.Completed != 1 || got.Evicted != 0 {
		t.Errorf("summary = %+v", got)
	}
}

func TestSampling(t *testing.T) {
	c := NewCollector(Config{SampleEvery: 4, Capacity: 64})
	sampled := 0
	for i := 0; i < 100; i++ {
		if ref := c.Begin(KindDataRead, 0, 0, 0, uint64(i), uint64(i)); ref != 0 {
			sampled++
		}
	}
	if sampled != 25 {
		t.Errorf("sampled %d of 100 with 1-in-4 sampling, want 25", sampled)
	}
	if s := c.Summary(); s.Seen != 100 || s.Sampled != 25 {
		t.Errorf("seen/sampled = %d/%d, want 100/25", s.Seen, s.Sampled)
	}
}

// TestRingEviction checks that a wrapped ring drops updates addressed to
// evicted spans instead of corrupting the slot's new tenant.
func TestRingEviction(t *testing.T) {
	c := NewCollector(Config{SampleEvery: 1, Capacity: 4})
	first := c.Begin(KindDataWrite, 0, 0, -1, 1, 1)
	// Wrap the ring completely: the first span's slot is re-tenanted.
	for i := 0; i < 4; i++ {
		lifecycle(c, KindDataWrite, 100, 110, 120)
	}
	if c.Summary().Evicted == 0 {
		t.Fatal("full wrap evicted nothing")
	}
	// A stale End must not complete (or corrupt) the new tenant.
	before := c.Summary().Completed
	c.End(first, 999)
	if c.Summary().Completed != before {
		t.Error("End on an evicted reference was not dropped")
	}
	for _, s := range c.Recent(4) {
		if s.Complete == 999 {
			t.Error("stale End mutated a re-tenanted slot")
		}
	}
}

func TestSlowestDigestRanksWritesOnly(t *testing.T) {
	c := NewCollector(Config{SampleEvery: 1, Capacity: 64, SlowestK: 2})
	lifecycle(c, KindDataWrite, 0, 10, 100)   // total 100
	lifecycle(c, KindDataWrite, 0, 10, 500)   // total 500
	lifecycle(c, KindMetaWrite, 0, 10, 300)   // total 300
	lifecycle(c, KindDataRead, 0, 10, 10_000) // reads never rank
	slow := c.Slowest()
	if len(slow) != 2 {
		t.Fatalf("Slowest() = %d spans, want 2", len(slow))
	}
	if slow[0].TotalTicks() != 500 || slow[1].TotalTicks() != 300 {
		t.Errorf("slowest order = %d, %d; want 500, 300", slow[0].TotalTicks(), slow[1].TotalTicks())
	}
	var buf bytes.Buffer
	if err := c.WriteSlowestDigest(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "slowest traced writes") {
		t.Errorf("digest missing header:\n%s", buf.String())
	}
}

func TestOpenSpansExcluded(t *testing.T) {
	c := NewCollector(Config{SampleEvery: 1, Capacity: 8})
	c.Begin(KindDataWrite, 0, 0, -1, 1, 1) // never completed
	lifecycle(c, KindDataWrite, 2, 3, 4)
	if got := len(c.Recent(8)); got != 1 {
		t.Errorf("Recent(8) = %d, want 1 (open span leaked)", got)
	}
	if got := len(resident(c)); got != 1 {
		t.Errorf("the export walk visits %d spans, want 1 (open span leaked)", got)
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	if ref := c.Begin(KindDataWrite, 0, 0, 0, 0, 0); ref != 0 {
		t.Error("nil Begin returned a reference")
	}
	c.Dispatch(1, 0, 0, 0, 0, 0, false)
	c.End(1, 0)
	if c.Recent(5) != nil || c.Slowest() != nil {
		t.Error("nil accessors returned data")
	}
	if s := c.Summary(); s.Seen != 0 {
		t.Error("nil Summary non-zero")
	}
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil chrome trace is not valid JSON: %v", err)
	}
}

// TestChromeTraceShape validates the trace-event JSON a viewer consumes:
// an object with a traceEvents array holding metadata and X-phase slices
// on the expected tracks.
func TestChromeTraceShape(t *testing.T) {
	c := NewCollector(Config{SampleEvery: 1, Capacity: 64})
	lifecycle(c, KindDataWrite, 4000, 8000, 16000) // 1us queued, 2us service
	ref := c.Begin(KindCoreStall, -1, -1, 3, 0, 0)
	c.End(ref, 4000)

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	byName := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byName[ev.Name]++
		switch ev.Name {
		case "queued":
			if ev.TS != 1 || ev.Dur != 1 {
				t.Errorf("queued slice ts=%v dur=%v, want 1/1 us", ev.TS, ev.Dur)
			}
		case "write":
			if ev.TS != 2 || ev.Dur != 2 {
				t.Errorf("write slice ts=%v dur=%v, want 2/2 us", ev.TS, ev.Dur)
			}
			if ev.Args["lat_ns"] == nil {
				t.Error("write slice missing lat_ns arg")
			}
		case "stall":
			if ev.PID != corePID+3 {
				t.Errorf("stall pid = %d, want %d", ev.PID, corePID+3)
			}
		}
	}
	for _, want := range []string{"queued", "write", "stall", "process_name", "thread_name"} {
		if byName[want] == 0 {
			t.Errorf("trace has no %q event", want)
		}
	}
}

// TestRecent requires Recent(n) to be the newest n completed spans:
// the last n of Spans() while the ring fills, wraps and holds open
// spans between completed ones.
func TestRecent(t *testing.T) {
	c := NewCollector(Config{SampleEvery: 1, Capacity: 64})
	for i := uint64(0); i < 10; i++ {
		lifecycle(c, KindDataWrite, i, i+1, i+2)
	}
	r := c.Recent(3)
	if len(r) != 3 {
		t.Fatalf("Recent(3) = %d spans", len(r))
	}
	if r[0].Enqueue != 7 || r[2].Enqueue != 9 {
		t.Errorf("Recent returned wrong window: enqueues %d..%d, want 7..9", r[0].Enqueue, r[2].Enqueue)
	}

	c = NewCollector(Config{SampleEvery: 1, Capacity: 16})
	for i := uint64(0); i < 40; i++ {
		if i%3 == 0 {
			c.Begin(KindDataWrite, 0, 0, -1, i, i) // never completed
		} else {
			lifecycle(c, KindDataWrite, i, i+1, i+2)
		}
		all := resident(c)
		for _, n := range []int{0, 1, 5, 16, 100} {
			want := all[len(all)-min(n, len(all)):]
			if got := c.Recent(n); !reflect.DeepEqual(got, want) {
				t.Fatalf("after %d spans, Recent(%d) = %v, want %v", i+1, n, got, want)
			}
		}
	}
}

// TestKindJSONLabels pins every kind's JSON bytes, and those of kinds
// past the last, to encoding/json's encoding of its label.
func TestKindJSONLabels(t *testing.T) {
	b, err := json.Marshal(KindSMBRead)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"smb-read"` {
		t.Errorf("KindSMBRead marshals as %s", b)
	}
	for k := KindDataWrite; k <= KindWriteRetry+2; k++ {
		want, err := json.Marshal(k.String())
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.MarshalJSON()
		if err != nil || string(got) != string(want) {
			t.Errorf("Kind(%d).MarshalJSON() = %s, %v; want %s", k, got, err, want)
		}
		if k > KindWriteRetry && k.String() != "unknown" {
			t.Errorf("Kind(%d).String() = %q, want unknown", k, k.String())
		}
	}
	if got, _ := Kind(255).MarshalJSON(); string(got) != `"unknown"` {
		t.Errorf("Kind(255) marshals as %s", got)
	}
}

// fixedRing is the collector's span ring as it was before it grew on
// demand: all capacity slots allocated up front, an occupied slot
// counted as evicted when a new span lands on it.
type fixedRing struct {
	ring    []Span
	nextID  uint64
	evicted uint64
}

func (r *fixedRing) begin(id uint64, s Span) {
	slot := &r.ring[(id-1)%uint64(len(r.ring))]
	if slot.ID != 0 {
		r.evicted++
	}
	*slot = s
	r.nextID = id
}

func (r *fixedRing) span(ref uint64) *Span {
	s := &r.ring[(ref-1)%uint64(len(r.ring))]
	if ref == 0 || s.ID != ref {
		return nil
	}
	return s
}

func (r *fixedRing) spans() []Span {
	var out []Span
	first := uint64(1)
	if r.nextID > uint64(len(r.ring)) {
		first = r.nextID - uint64(len(r.ring)) + 1
	}
	for id := first; id <= r.nextID; id++ {
		if s := r.ring[(id-1)%uint64(len(r.ring))]; s.ID == id && s.done {
			out = append(out, s)
		}
	}
	return out
}

// TestGrowingRingMatchesFixedRing drives a collector and the fixed
// reference ring through the same random transactions — sampled and
// not, completed out of order, some addressed to evicted spans — and
// checks that wrap, eviction counts, Spans order and evicted-reference
// lookups agree at every step, for capacities on both sides of each
// growth step.
func TestGrowingRingMatchesFixedRing(t *testing.T) {
	for _, capacity := range []int{1, 3, 64, 65, 100, 1000} {
		for _, every := range []int{1, 3} {
			c := NewCollector(Config{SampleEvery: every, Capacity: capacity})
			ref := &fixedRing{ring: make([]Span, capacity)}
			rng := rand.New(rand.NewSource(int64(capacity*10 + every)))
			var refs []uint64
			for step := uint64(1); step <= uint64(12*capacity*every+300); step++ {
				switch op := rng.Intn(3); {
				case op == 0 || len(refs) == 0:
					id := c.Begin(KindDataWrite, 0, 1, -1, step, step)
					if id == 0 {
						continue
					}
					ref.begin(id, Span{ID: id, Kind: KindDataWrite, Channel: 0, Bank: 1, Core: -1, Line: step,
						Enqueue: step, Dispatch: step, WLBucket: -1, BLBucket: -1, ClrsBucket: -1})
					refs = append(refs, id)
				case op == 1:
					id := refs[rng.Intn(len(refs))]
					c.Dispatch(id, step, 50, 1, 2, 3, true)
					if s := ref.span(id); s != nil {
						s.Dispatch, s.LatNs, s.WLBucket, s.BLBucket, s.ClrsBucket, s.Drain = step, 50, 1, 2, 3, true
					}
				default:
					id := refs[rng.Intn(len(refs))]
					c.End(id, step)
					if s := ref.span(id); s != nil {
						s.Complete, s.done = step, true
					}
				}
				for _, id := range []uint64{refs[0], refs[len(refs)-1]} {
					if got, want := c.span(id) != nil, ref.span(id) != nil; got != want {
						t.Fatalf("cap %d every %d step %d: span(%d) resolves %v, fixed ring %v", capacity, every, step, id, got, want)
					}
				}
				if got := c.Summary().Evicted; got != ref.evicted {
					t.Fatalf("cap %d every %d step %d: Summary().Evicted = %d, fixed ring %d", capacity, every, step, got, ref.evicted)
				}
				if step%17 != 0 {
					continue
				}
				if got, want := resident(c), ref.spans(); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
					t.Fatalf("cap %d every %d step %d: resident spans differ from the fixed ring:\n got %v\nwant %v", capacity, every, step, got, want)
				}
			}
			if ref.evicted == 0 {
				t.Fatalf("cap %d every %d: the run never wrapped the ring", capacity, every)
			}
		}
	}
}

// BenchmarkCollectorRecord times one degraded figure cell's tracing: a
// fresh 4096-slot collector and the Begin/Dispatch/End of the 551 spans
// such a cell samples on average.
func BenchmarkCollectorRecord(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewCollector(Config{Capacity: 4096})
		for t := uint64(0); t < 551; t++ {
			lifecycle(c, KindDataWrite, t, t+3, t+10+t%13)
		}
	}
}
