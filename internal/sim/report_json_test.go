package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ladder/internal/metrics"
	"ladder/internal/timeline"
	"ladder/internal/tracing"
)

// oracleJSON is what every report writer must write: encoding/json's
// indented document and a newline.
func oracleJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	return append(b, '\n'), err
}

// checkOracle compares a writer's output for v with the oracle's. When
// the oracle fails (a NaN or infinite float), the writer must fail too
// and write nothing.
func checkOracle(t *testing.T, v any, write func(io.Writer) error) {
	t.Helper()
	want, wantErr := oracleJSON(v)
	var got bytes.Buffer
	err := write(&got)
	if wantErr != nil {
		if err == nil || got.Len() > 0 {
			t.Fatalf("%T: encoding/json fails (%v), the encoder returned %v after %d bytes", v, wantErr, err, got.Len())
		}
		return
	}
	if err != nil {
		t.Fatalf("%T: %v", v, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%T differs from json.MarshalIndent %s", v, byteDiff(got.Bytes(), want))
	}
}

// byteDiff locates the first byte at which got and want differ and
// quotes 80 bytes of each on either side of it.
func byteDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Sprintf("at byte %d:\n got …%q\nwant …%q",
		i, got[max(i-80, 0):min(i+80, len(got))], want[max(i-80, 0):min(i+80, len(want))])
}

// TestReportEncoderMatchesOracle encodes real reports of every figure
// scheme (default, degraded, traced, crash and Verify runs), their
// bench documents and a grid report, and compares each with
// json.MarshalIndent.
func TestReportEncoderMatchesOracle(t *testing.T) {
	runs := map[string]func(*Config){
		"default": func(*Config) {},
		"degraded": func(c *Config) {
			c.FaultRate, c.SpareRows, c.WearLeveling, c.VWLPeriod = 0.01, 256, true, 16
			c.ProactiveWearLimit, c.TimelineInterval = 64, 5_000
		},
		"traced": func(c *Config) { c.TraceSample, c.TraceCapacity, c.TimelineInterval = 1, 512, 8_000 },
		"crash":  func(c *Config) { c.CrashAtInstr = 12_000 },
		"verify": func(c *Config) { c.Verify = true },
	}
	for name, edit := range runs {
		for _, scheme := range FigureSchemes() {
			t.Run(name+"/"+scheme, func(t *testing.T) {
				cfg := Config{Workload: "mcf", Scheme: scheme, InstrPerCore: 8_000, Seed: 11}
				edit(&cfg)
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rep := NewReport(res)
				if cfg.TimelineInterval > 0 && len(rep.Timeline.Epochs) < 2 {
					t.Fatalf("%d timeline epochs, want several", len(rep.Timeline.Epochs))
				}
				if cfg.TraceSample > 0 && len(rep.Trace.Slowest) == 0 {
					t.Fatal("trace summary lists no slow writes")
				}
				if cfg.FaultRate > 0 && (rep.Faults.Injected == 0 || rep.Remap == nil) {
					t.Fatalf("degraded run injected no faults (%+v) or built no decoder", rep.Faults)
				}
				checkOracle(t, rep, rep.WriteJSON)
				bench := rep.Bench(name)
				checkOracle(t, bench, bench.WriteJSON)
				bench.Provenance = &BenchProvenance{GoVersion: "go1.24", GOMAXPROCS: 2, Label: name}
				checkOracle(t, bench, bench.WriteJSON)
			})
		}
	}
	grid, err := RunGrid(Options{Instr: 4_000, Seed: 5, Workloads: []string{"lbm", "astar"},
		Base: Config{TimelineInterval: 10_000, FaultRate: 0.01}}, FigureSchemes())
	if err != nil {
		t.Fatal(err)
	}
	gr, err := NewGridReport(grid)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, gr, gr.WriteJSON)
	gr.StripVolatile()
	checkOracle(t, gr, gr.WriteJSON)
}

// escaped lists one string per class of byte encoding/json escapes or
// replaces, each alone in its string.
var escaped = []string{"&", "<", ">", `"`, `\`, "\u2028", "\u2029", "\t", "\x00", "\xff", "\x7f", "é"}

// fill sets every exported field reachable from v to a non-zero value
// derived from n (two entries per slice and map), so a field the
// encoder does not write differs from the oracle. Strings carry bytes
// encoding/json escapes.
func fill(t *testing.T, v reflect.Value, n int) {
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), n+i+1)
			}
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < 2; i++ {
			fill(t, s.Index(i), n+i)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMapWithSize(v.Type(), 2)
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(t, k, n+i)
			fill(t, e, n+i)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d%s", n, escaped[n%len(escaped)]))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(-1 - n%100))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(1 + n%200))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(n) + 0.375)
	default:
		t.Fatalf("fill: no value for a %s", v.Type())
	}
}

// TestReportEncoderCoversEveryField fills every field of each report
// type, its nested sections included, and compares the encoding with
// the oracle: a field added to a report type without encoder support
// fails here. The zero documents pin nil maps and slices as null and
// the omitted sections.
func TestReportEncoderCoversEveryField(t *testing.T) {
	var rep Report
	fill(t, reflect.ValueOf(&rep).Elem(), 0)
	checkOracle(t, &rep, rep.WriteJSON)
	var bench BenchReport
	fill(t, reflect.ValueOf(&bench).Elem(), 0)
	checkOracle(t, &bench, bench.WriteJSON)
	var gr GridReport
	fill(t, reflect.ValueOf(&gr).Elem(), 0)
	checkOracle(t, &gr, gr.WriteJSON)

	zero := &Report{Trace: &tracing.Summary{}, Faults: &FaultSummary{}, Timeline: &timeline.Timeline{}}
	checkOracle(t, zero, zero.WriteJSON)
	zero.Timeline.Epochs = []timeline.Epoch{{ReadQueue: []int{}, Counters: map[string]uint64{}}}
	zero.Metrics = metrics.Snapshot{Counters: map[string]uint64{},
		Histograms: map[string]metrics.HistogramSnapshot{"h": {}}, Grids: map[string]metrics.GridSnapshot{"g": {Counts: [][]uint64{nil, {}}}}}
	checkOracle(t, zero, zero.WriteJSON)
	for _, b := range []*BenchReport{{}, {Metrics: map[string]float64{}, Provenance: &BenchProvenance{}}} {
		checkOracle(t, b, b.WriteJSON)
	}
	for _, g := range []*GridReport{{}, {Workloads: []string{}, Cells: []GridCell{}}} {
		checkOracle(t, g, g.WriteJSON)
	}
}

// FuzzReportJSON compares the report encoder with encoding/json on
// reports built from fuzzed instrument names, strings (escapes, HTML
// <>&, U+2028, invalid UTF-8) and floats (±0, 1e-7, 1e21). NaN and ±Inf
// must fail the encode before any byte is written.
func FuzzReportJSON(f *testing.F) {
	f.Add("plain", "memctrl.ch0.reset_latency_ns", 1.5, uint64(3))
	f.Add(`quote " back \ slash`, "", 0.0, uint64(0))
	f.Add("<script>&</script>", "a<b>&c", 1e21, uint64(math.MaxUint64))
	f.Add("line sep \u2028 par \u2029\n\t\x00", "\x7f", math.Copysign(0, -1), uint64(1))
	f.Add("bad \xff\xfe utf8", "\xc3", 1e-7, uint64(42))
	f.Add("", "nan", math.NaN(), uint64(1))
	f.Add("{[,:]}", "inf", math.Inf(-1), uint64(7))
	f.Add("R&D", "a>b", math.Inf(1), uint64(9))
	f.Fuzz(func(t *testing.T, s, name string, x float64, n uint64) {
		h := metrics.HistogramSnapshot{Bounds: []float64{x, 2}, Counts: []uint64{n, 0, 1}, Count: n, Sum: x, P99: x}
		rep := &Report{
			Schema: ReportSchema, Workload: s, Scheme: name, InstructionsRetired: n, AvgIPC: x,
			ResetLatency: ResetLatencySummary{Count: n, MaxNs: x},
			Metrics: metrics.Snapshot{
				Counters:   map[string]uint64{name: n, s: 1, "sim.ticks": 2},
				Gauges:     map[string]metrics.GaugeSnapshot{name: {Last: x, Samples: n}},
				Histograms: map[string]metrics.HistogramSnapshot{name: h, s + name: {}},
				Grids:      map[string]metrics.GridSnapshot{s: {Rows: 1, Cols: 2, Counts: [][]uint64{{n, 1}}}},
			},
			Trace: &tracing.Summary{Seen: n, Slowest: []tracing.Span{{ID: 1, LatNs: x, WLBucket: -1}}},
			Timeline: &timeline.Timeline{Schema: s, Epochs: []timeline.Epoch{{IPC: x,
				Counters:  map[string]uint64{name: n},
				Quantiles: map[string]timeline.HistStat{s: {P50: x}}}}},
		}
		checkOracle(t, rep, rep.WriteJSON)
		bench := &BenchReport{Name: s, Metrics: map[string]float64{name: x, s: 1}, Provenance: &BenchProvenance{Label: name}}
		checkOracle(t, bench, bench.WriteJSON)
		gr := &GridReport{Workloads: []string{s}, Cells: []GridCell{{Workload: name, AvgIPC: x}}, Metrics: rep.Metrics}
		checkOracle(t, gr, gr.WriteJSON)
	})
}

// TestIndentCommittedJSON decodes every committed BENCH_*.json anchor
// into a BenchReport and re-encodes it: BenchReport.WriteJSON wrote
// them, so it must reproduce each file byte for byte.
func TestIndentCommittedJSON(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed BENCH_*.json anchors found (%v)", err)
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		var doc BenchReport
		if err := dec.Decode(&doc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var again bytes.Buffer
		if err := doc.WriteJSON(&again); err != nil || !bytes.Equal(again.Bytes(), b) {
			t.Errorf("%s: re-encoded bytes differ from the committed file (%v)", name, err)
		}
	}
}

// degradedReport is the report of BenchmarkReportWriteJSON and
// TestReportWriteJSONAllocs: one degraded, traced figure cell, with
// faults, remapping, wear leveling, a timeline and a trace summary on
// top of the full metrics snapshot.
func degradedReport(tb testing.TB) *Report {
	tb.Helper()
	res, err := Run(Config{Workload: "mcf", Scheme: SchemeHybrid, InstrPerCore: 20_000, Seed: 3,
		FaultRate: 0.01, SpareRows: 256, WearLeveling: true, VWLPeriod: 16, ProactiveWearLimit: 64,
		TimelineInterval: 100_000, TraceSample: 1, TraceCapacity: 4096})
	if err != nil {
		tb.Fatal(err)
	}
	return NewReport(res)
}

// BenchmarkReportWriteJSON times the JSON export of one degraded,
// traced figure cell's report.
func BenchmarkReportWriteJSON(b *testing.B) {
	rep := degradedReport(b)
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

// BenchmarkGridReportWriteJSON times the JSON export of the merged
// report of one 16×7 figure grid.
func BenchmarkGridReportWriteJSON(b *testing.B) {
	grid, err := RunGrid(Options{Instr: 5_000, Seed: 3}, FigureSchemes())
	if err != nil {
		b.Fatal(err)
	}
	gr, err := NewGridReport(grid)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gr.WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := gr.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
