package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// encoderIndent is the reference the report writers used to be: a
// json.Encoder with two-space indentation.
func encoderIndent(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// checkIndent compares writeJSON and IndentedJSON against the
// encoding/json references on v.
func checkIndent(t *testing.T, v any) {
	t.Helper()
	want, wantErr := encoderIndent(v)
	var got bytes.Buffer
	err := writeJSON(&got, v)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("writeJSON error %v, encoder error %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("writeJSON differs from the encoder:\n got %q\nwant %q", got.Bytes(), want)
	}
	marshal, _ := json.MarshalIndent(v, "", "  ")
	if b, _ := IndentedJSON(v); !bytes.Equal(b, marshal) {
		t.Fatalf("IndentedJSON differs from json.MarshalIndent:\n got %q\nwant %q", b, marshal)
	}
}

// FuzzIndentJSON differentially tests the one-pass indenter against
// encoding/json on values built from the fuzzed string and numbers
// (escapes, HTML-escaped <>&, U+2028, invalid UTF-8, NaN rejection) and
// on whatever valid JSON document raw holds, re-encoded in its own
// member order.
func FuzzIndentJSON(f *testing.F) {
	f.Add("plain", 1.5, int64(-3), []byte(`{"a":[1,{},[],{"b":null}],"c":"d"}`))
	f.Add(`quote " back \ slash`, 0.0, int64(0), []byte(`[]`))
	f.Add("<script>&</script>", 1e21, int64(math.MaxInt64), []byte(`{}`))
	f.Add("line sep par\n\t\x00", -0.0, int64(math.MinInt64), []byte(`" "`))
	f.Add("bad \xff\xfe utf8", 1e-7, int64(42), []byte(`[[[[]]],{"":{"":[]}}]`))
	f.Add("", math.NaN(), int64(1), []byte(`not json`))
	f.Add("{[,:]}", math.Inf(1), int64(7), []byte(`{"k\"ey":"v\\","x":[true,false,-1.25e-9]}`))
	f.Fuzz(func(t *testing.T, s string, x float64, n int64, raw []byte) {
		checkIndent(t, map[string]any{
			s:       []any{s, x, n, map[string]any{}, []any{}, nil},
			"empty": map[string]any{"": []any{[]any{}, map[string]any{s: s}}},
		})
		checkIndent(t, []any{x, n, s})
		checkIndent(t, s)
		if json.Valid(raw) {
			checkIndent(t, json.RawMessage(raw))
		}
	})
}

// TestIndentCommittedJSON runs the indenter over every JSON file
// committed at the repository root (the BENCH_*.json anchors among
// them), in its own member order, and over a real run report.
func TestIndentCommittedJSON(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed JSON files found (%v)", err)
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		checkIndent(t, json.RawMessage(b))
		if !strings.HasPrefix(filepath.Base(name), "BENCH_") {
			continue
		}
		// The anchors are BenchReport.WriteJSON's output: rewriting
		// them must reproduce the file.
		var again bytes.Buffer
		if err := writeJSON(&again, json.RawMessage(b)); err != nil || !bytes.Equal(again.Bytes(), b) {
			t.Errorf("%s: rewritten bytes differ from the committed file (%v)", name, err)
		}
	}
	res, err := Run(Config{Workload: "lbm", Scheme: SchemeHybrid, InstrPerCore: 5000, Seed: 7,
		TraceSample: 1, FaultRate: 0.01, TimelineInterval: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	checkIndent(t, NewReport(res))
}

// BenchmarkReportWriteJSON times the JSON export of one degraded,
// traced figure cell's report: faults, remapping, wear leveling, a
// timeline and a trace summary on top of the full metrics snapshot.
func BenchmarkReportWriteJSON(b *testing.B) {
	res, err := Run(Config{Workload: "mcf", Scheme: SchemeHybrid, InstrPerCore: 20_000, Seed: 3,
		FaultRate: 0.01, SpareRows: 256, WearLeveling: true, VWLPeriod: 16, ProactiveWearLimit: 64,
		TimelineInterval: 100_000, TraceSample: 1, TraceCapacity: 4096})
	if err != nil {
		b.Fatal(err)
	}
	rep := NewReport(res)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := rep.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
