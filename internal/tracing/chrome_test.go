package tracing

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"ladder/internal/jsonenc"
)

// fuzzBytes hands out fuzz input a field at a time, zeros once it runs
// out.
type fuzzBytes []byte

func (p *fuzzBytes) u8() byte {
	if len(*p) == 0 {
		return 0
	}
	v := (*p)[0]
	*p = (*p)[1:]
	return v
}

func (p *fuzzBytes) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(p.u8())
	}
	return v
}

// fuzzCollector decodes data into a collector: a ring capacity and a
// sampling period, then Begin, Dispatch and End calls with arbitrary
// kinds, placements, buckets, latencies (any float64 bit pattern) and
// ticks (small steps or any uint64), addressed to any earlier
// reference, evicted or not.
func fuzzCollector(data []byte) *Collector {
	p := fuzzBytes(data)
	c := NewCollector(Config{Capacity: 1 + int(p.u8()%16), SampleEvery: 1 + int(p.u8()%3)})
	var refs []uint64
	ref := func() uint64 {
		if len(refs) == 0 {
			return 0
		}
		return refs[int(p.u8())%len(refs)]
	}
	now := uint64(0)
	tick := func() uint64 {
		if m := p.u8(); m%4 != 0 {
			now += uint64(m) * 37
			return now
		}
		return p.u64()
	}
	for op := 0; len(p) > 0 && op < 512; op++ {
		switch p.u8() % 3 {
		case 0:
			kind, ch, bank, core := Kind(p.u8()%10), int(int8(p.u8())), int(int8(p.u8())), int(int8(p.u8()))
			refs = append(refs, c.Begin(kind, ch, bank, core, p.u64(), tick()))
		case 1:
			r, at := ref(), tick()
			lat := 29 + float64(p.u8())*2.5
			if p.u8()%4 == 0 {
				lat = math.Float64frombits(p.u64())
			}
			c.Dispatch(r, at, lat, int(int8(p.u8())), int(int8(p.u8())), int(int8(p.u8())), p.u8()%2 == 1)
		case 2:
			r := ref()
			c.End(r, tick())
		}
	}
	return c
}

// FuzzChromeTrace requires WriteChromeTrace to reproduce the
// encoding/json reference byte for byte on arbitrary span sequences, or
// both exporters to fail.
func FuzzChromeTrace(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 1, 0, 2, 5, 0, 0, 0, 0, 0, 0, 0, 0x40, 1, 0, 9, 7, 1, 2, 3, 1, 2, 0, 12})
	f.Add([]byte{1, 1, 0, 5, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2, 0, 0, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 6, 1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 7, 1, 0, 4, 1, 0, 0x3e, 0xb0, 0xc6, 0xf7, 0xa0, 0xb5, 0xed, 0x8d, 0, 0, 0, 0, 2, 0, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		compareChrome(t, fuzzCollector(data))
	})
}

// TestAppendJSONFloat checks the float formatter the Chrome writer
// shares with the reports against encoding/json at the 'f'/'e' cutoffs, signed zeros, subnormals and exponent forms.
func TestAppendJSONFloat(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.5e-9,
		-2.5e-10, 1e-100, 5e-324, 1e20, math.Nextafter(1e21, 0), 1e21, 1.2345e22, -1e21, 1e100,
		math.MaxFloat64, 658, 163.25, 1.0 / 3}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := jsonenc.AppendFloat(nil, v); string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, want %s", v, got, want)
		}
	}
}

// TestAppendTicksUs checks the integer tick formatter against the float
// path it replaces, densely at small ticks and across its cutoff.
func TestAppendTicksUs(t *testing.T) {
	check := func(ticks uint64) {
		want := jsonenc.AppendFloat(nil, float64(ticks)/ticksPerUs)
		if got := appendTicksUs(nil, ticks); string(got) != string(want) {
			t.Fatalf("appendTicksUs(%d) = %s, want %s", ticks, got, want)
		}
	}
	for ticks := uint64(0); ticks < 200_000; ticks++ {
		check(ticks)
	}
	for _, base := range []uint64{4e13, 1 << 40, 1 << 53, math.MaxUint64 - 5000} {
		for d := uint64(0); d < 5000; d++ {
			check(base - 2500 + d)
		}
	}
	x := uint64(1)
	for i := 0; i < 100_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		check(x >> (x % 64))
	}
}

// failWriter accepts limit writes, then fails every write.
type failWriter struct {
	limit, writes int
	err           error
}

func (w *failWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.limit {
		return 0, w.err
	}
	return len(p), nil
}

// TestChromeTraceWriteError checks that a failing writer's first error
// is returned and that the export stops writing after it.
func TestChromeTraceWriteError(t *testing.T) {
	c := degradedRing()
	for _, limit := range []int{0, 1, 5} {
		w := &failWriter{limit: limit, err: errors.New("disk full")}
		if err := c.WriteChromeTrace(w); err != w.err {
			t.Errorf("limit %d: error %v, want %v", limit, err, w.err)
		}
		if w.writes != limit+1 {
			t.Errorf("limit %d: %d writes, want %d (none after the failure)", limit, w.writes, limit+1)
		}
	}
	var n countWriter
	if err := c.WriteChromeTrace(&n); err != nil {
		t.Fatal(err)
	}
	if n.writes < 10 {
		t.Errorf("a %d-byte export took %d writes; it should be written in chunks", n.bytes, n.writes)
	}
}

// countWriter counts writes and bytes.
type countWriter struct{ writes, bytes int }

func (w *countWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// TestRetrySliceCarriesPricing checks that a verify retry's slice
// carries the escalated pulse and the table cell that priced it, as a
// first attempt's slice does.
func TestRetrySliceCarriesPricing(t *testing.T) {
	c := NewCollector(Config{Capacity: 8})
	record(c, KindWriteRetry, 1, 4, -1, 4000, 4000, 6800, 171.5, 6, 2, 5, true)
	var out strings.Builder
	if err := c.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"lat_ns": 171.5, "wl_bucket": 6.0, "bl_bucket": 2.0, "clrs_bucket": 5.0, "drain": true}
	for _, ev := range doc.TraceEvents {
		if ev.Name != "write-retry" {
			continue
		}
		for k, v := range want {
			if ev.Args[k] != v {
				t.Errorf("write-retry arg %s = %v, want %v", k, ev.Args[k], v)
			}
		}
		return
	}
	t.Fatalf("no write-retry slice in %s", out.String())
}
