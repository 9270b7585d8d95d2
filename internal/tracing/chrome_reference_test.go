package tracing

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"
)

// refChromeEvent and refChromeTrace are the encoding/json document the
// Chrome export was first written as. chromeTraceReference keeps that
// exporter, unchanged, as the byte-for-byte reference WriteChromeTrace
// must reproduce.
type refChromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Cat   string         `json:"cat,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type refChromeTrace struct {
	TraceEvents     []refChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
}

// chromeTraceReference renders c's Chrome trace through encoding/json:
// one event struct and args map per slice, then one Encode call.
func chromeTraceReference(c *Collector, w io.Writer) error {
	doc := refChromeTrace{TraceEvents: []refChromeEvent{}, DisplayTimeUnit: "ns"}
	if c == nil {
		return json.NewEncoder(w).Encode(doc)
	}

	type trackKey struct{ pid, tid int }
	tracks := map[trackKey]bool{}
	c.eachDone(func(s *Span) {
		pid, tid := s.track()
		tracks[trackKey{pid, tid}] = true
		ts := float64(s.Enqueue) / ticksPerUs
		if q := s.QueueTicks(); q > 0 && s.Kind != KindCoreStall {
			doc.TraceEvents = append(doc.TraceEvents, refChromeEvent{
				Name: "queued", Phase: "X", Cat: "queue",
				PID: pid, TID: tid, TS: ts, Dur: float64(q) / ticksPerUs,
				Args: map[string]any{"line": s.Line, "span": s.ID},
			})
		}
		args := map[string]any{"line": s.Line, "span": s.ID}
		if s.IsWrite() || s.Kind == KindWriteRetry {
			args["lat_ns"] = s.LatNs
			args["wl_bucket"] = s.WLBucket
			args["bl_bucket"] = s.BLBucket
			args["clrs_bucket"] = s.ClrsBucket
			args["drain"] = s.Drain
		}
		doc.TraceEvents = append(doc.TraceEvents, refChromeEvent{
			Name: s.Kind.String(), Phase: "X", Cat: "service",
			PID: pid, TID: tid,
			TS:   float64(s.Dispatch) / ticksPerUs,
			Dur:  float64(s.ServiceTicks()) / ticksPerUs,
			Args: args,
		})
	})

	keys := make([]trackKey, 0, len(tracks))
	for k := range tracks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].tid < keys[j].tid
	})
	meta := make([]refChromeEvent, 0, 2*len(keys))
	seenPID := map[int]bool{}
	for _, k := range keys {
		if !seenPID[k.pid] {
			seenPID[k.pid] = true
			name := fmt.Sprintf("channel %d", k.pid)
			if k.pid >= corePID {
				name = fmt.Sprintf("core %d", k.pid-corePID)
			}
			meta = append(meta, refChromeEvent{
				Name: "process_name", Phase: "M", PID: k.pid,
				Args: map[string]any{"name": name},
			})
		}
		name := fmt.Sprintf("bank %d", k.tid)
		if k.pid >= corePID {
			name = "stalls"
		}
		meta = append(meta, refChromeEvent{
			Name: "thread_name", Phase: "M", PID: k.pid, TID: k.tid,
			Args: map[string]any{"name": name},
		})
	}
	doc.TraceEvents = append(meta, doc.TraceEvents...)
	return json.NewEncoder(w).Encode(doc)
}

// chromeCase is one hand-built collector for the differential test.
type chromeCase struct {
	name  string
	build func() *Collector
}

// record runs one full lifecycle with explicit placement and write
// parameters.
func record(c *Collector, kind Kind, ch, bank, core int, enq, disp, done uint64, lat float64, wl, bl, clrs int, drain bool) {
	ref := c.Begin(kind, ch, bank, core, enq*7+uint64(kind), enq)
	c.Dispatch(ref, disp, lat, wl, bl, clrs, drain)
	c.End(ref, done)
}

var chromeCases = []chromeCase{
	{"nil", func() *Collector { return nil }},
	{"empty", func() *Collector { return NewCollector(Config{Capacity: 8}) }},
	{"open spans only", func() *Collector {
		c := NewCollector(Config{Capacity: 8})
		c.Begin(KindDataWrite, 0, 1, -1, 5, 10)
		c.Begin(KindCoreStall, -1, -1, 2, 0, 11)
		return c
	}},
	{"every kind", func() *Collector {
		c := NewCollector(Config{Capacity: 64})
		for k := Kind(0); k <= KindWriteRetry+2; k++ {
			record(c, k, int(k)%2, int(k), int(k), 4000*uint64(k), 4000*uint64(k)+40, 4000*uint64(k)+2632,
				163.25+float64(k), int(k), 7-int(k), int(k)/2, k%2 == 0)
		}
		record(c, Kind(255), 1, 3, -1, 9, 10, 11, 50, 1, 2, 3, true)
		return c
	}},
	{"unknown buckets", func() *Collector {
		c := NewCollector(Config{Capacity: 8})
		record(c, KindDataWrite, 0, 0, -1, 100, 200, 300, 658, -1, -1, -1, false)
		record(c, KindMetaWrite, 0, 1, -1, 100, 150, 900, 120.5, 4, 5, -1, true)
		record(c, KindWriteRetry, 1, 2, -1, 400, 400, 1200, 672, 7, 7, -1, true)
		return c
	}},
	{"zero queue and service", func() *Collector {
		c := NewCollector(Config{Capacity: 8})
		record(c, KindDataWrite, 0, 2, -1, 0, 0, 0, 0, 0, 0, 0, false)
		record(c, KindDataRead, 1, 2, 1, 7, 7, 7, 0, -1, -1, -1, false)
		record(c, KindCoreStall, -1, -1, 0, 12, 12, 12, 0, -1, -1, -1, false)
		return c
	}},
	{"core tracks", func() *Collector {
		c := NewCollector(Config{Capacity: 16})
		for core := -1; core < 5; core++ {
			record(c, KindCoreStall, -1, -1, core, uint64(core+2)*100, uint64(core+2)*100, uint64(core+2)*100+33, 0, -1, -1, -1, false)
		}
		record(c, KindDataRead, 1, 15, 3, 1, 2, 3, 0, -1, -1, -1, false)
		record(c, KindDataRead, -3, -2, 0, 1, 2, 3, 0, -1, -1, -1, false)
		return c
	}},
	{"wrapped ring", func() *Collector {
		c := NewCollector(Config{Capacity: 4, SampleEvery: 2})
		stale := c.Begin(KindDataWrite, 0, 0, -1, 1, 0)
		stale = max(stale, c.Begin(KindDataWrite, 0, 0, -1, 1, 0))
		for i := uint64(0); i < 11; i++ {
			record(c, Kind(i%8), int(i%2), int(i%5), int(i%3), i*97, i*97+i*i, i*97+i*i+1000, float64(i)*31.5, int(i%8), int((i+3)%8), int(i%4)-1, i%3 == 0)
		}
		c.End(stale, 5)
		return c
	}},
	{"extreme values", func() *Collector {
		c := NewCollector(Config{Capacity: 16})
		for i, lat := range []float64{1e-7, 9.99e-7, 1e-6, 1e20, 1e21, 1.5e300, 5e-324, -0.0, -2.5e-9, 123.456} {
			record(c, KindDataWrite, 0, i, -1, uint64(i), uint64(i)+1, uint64(i)+2, lat, i%8, i%8, i%8, i%2 == 1)
		}
		record(c, KindDataRead, 0, 0, 0, math.MaxUint64-7, math.MaxUint64-3, math.MaxUint64, 0, -1, -1, -1, false)
		record(c, KindMetaRead, 0, 1, 0, 1<<63, 1<<62, 1<<61, 0, -1, -1, -1, false)
		return c
	}},
	{"NaN latency", func() *Collector {
		c := NewCollector(Config{Capacity: 4})
		record(c, KindDataRead, 0, 0, 0, 1, 2, 3, 0, -1, -1, -1, false)
		record(c, KindDataWrite, 0, 0, -1, 1, 2, 3, math.NaN(), 1, 1, 1, false)
		return c
	}},
	{"infinite latency", func() *Collector {
		c := NewCollector(Config{Capacity: 4})
		record(c, KindMetaWrite, 0, 0, -1, 1, 2, 3, math.Inf(-1), 1, 1, 1, false)
		return c
	}},
}

// compareChrome exports c both ways and fails unless the bytes match or
// both exporters return an error.
func compareChrome(t *testing.T, c *Collector) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr := c.WriteChromeTrace(&got)
	wantErr := chromeTraceReference(c, &want)
	switch {
	case gotErr != nil && wantErr != nil:
	case gotErr != nil || wantErr != nil:
		t.Fatalf("WriteChromeTrace error %v, reference error %v", gotErr, wantErr)
	case !bytes.Equal(got.Bytes(), want.Bytes()):
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("export differs from the encoding/json reference at byte %d:\n got: %.200s\nwant: %.200s",
			i, g[max(i-60, 0):], w[max(i-60, 0):])
	}
}

// TestChromeTraceMatchesReference requires WriteChromeTrace to produce
// the reference exporter's bytes, or an error where it errs, on
// collectors built to reach every branch of the export.
func TestChromeTraceMatchesReference(t *testing.T) {
	for _, tc := range chromeCases {
		t.Run(tc.name, func(t *testing.T) { compareChrome(t, tc.build()) })
	}
}

// degradedRing fills a 4096-span ring the way a degraded figure cell
// does: two channels of 16 banks and four cores, mostly reads, data
// writes with a verify retry now and then, metadata traffic and core
// stalls, wrapped once so eviction is in play.
func degradedRing() *Collector {
	c := NewCollector(Config{Capacity: 4096})
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	now := uint64(0)
	for i := 0; i < 6000; i++ {
		r := next()
		now += r % 400
		ch, bank, core := int(r>>8)%2, int(r>>12)%16, int(r>>20)%4
		queue, service := (r>>24)%3000, 200+(r>>40)%2400
		switch k := r >> 56; {
		case k < 16:
			record(c, KindCoreStall, -1, -1, core, now, now, now+service, 0, -1, -1, -1, false)
		case k < 120:
			record(c, KindDataRead, ch, bank, core, now, now+queue, now+queue+service, 0, -1, -1, -1, false)
		case k < 140:
			record(c, KindMetaRead, ch, bank, -1, now, now+queue, now+queue+service, 0, -1, -1, -1, false)
		case k < 160:
			record(c, KindMetaWrite, ch, bank, -1, now, now+queue, now+queue+service,
				float64(service)/4, int(r>>32)%8, int(r>>36)%8, -1, r&1 == 0)
		default:
			lat := 29 + float64((r>>32)%1000)*0.631
			record(c, KindDataWrite, ch, bank, -1, now, now+queue, now+queue+service,
				lat, int(r>>32)%8, int(r>>36)%8, int(r>>44)%8, r&1 == 0)
			if k > 250 {
				record(c, KindWriteRetry, ch, bank, -1, now+queue+service, now+queue+service, now+queue+2*service,
					lat*1.3, int(r>>32)%8, int(r>>36)%8, min(int(r>>44)%8+1, 7), r&1 == 0)
			}
		}
	}
	return c
}

// TestChromeTraceMatchesReferenceDegraded runs the differential check
// on the benchmark's ring.
func TestChromeTraceMatchesReferenceDegraded(t *testing.T) {
	compareChrome(t, degradedRing())
}

// BenchmarkWriteChromeTrace times one export of a full degraded-cell
// ring to a discarding writer.
func BenchmarkWriteChromeTrace(b *testing.B) {
	c := degradedRing()
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteChromeTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
