package metrics_test

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ladder/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/prom.golden")

// promGoldenCases are the expositions testdata/prom.golden pins, byte
// for byte: label sanitizing and escaping, exponent-form and special
// values, short bucket counts, odd instrument names, repeated extras
// and the empty snapshot.
func promGoldenCases() []struct {
	name   string
	snap   metrics.Snapshot
	labels []metrics.PromLabel
	extra  []metrics.PromSample
} {
	odd := metrics.Snapshot{
		Counters: map[string]uint64{"big.count": 12_345_678, "zero": 0, "wéird name-1": 7, "": 1, "max": math.MaxUint64},
		Gauges: map[string]metrics.GaugeSnapshot{"g.tenth": {Last: 0.1}, "g.neg": {Last: -3.5},
			"g.tiny": {Last: 1e-7}, "g.nan": {Last: math.NaN()}, "g.inf": {Last: math.Inf(-1)}},
		Histograms: map[string]metrics.HistogramSnapshot{
			"h.exp":   {Bounds: metrics.ExponentialBounds(0.5, 2, 6), Counts: []uint64{1, 0, 2, 0, 0, 3, 4}, Count: 10, Sum: 1234.5625},
			"h.short": {Bounds: []float64{1, 2, 3}, Counts: []uint64{5}, Count: 5, Sum: 2.5},
			"h.empty": {},
		},
		Grids: map[string]metrics.GridSnapshot{"grid.nil": {Rows: 2, Cols: 2}, "grid.full": {Rows: 1, Cols: 3, Counts: [][]uint64{{1, 2, 3}}}},
	}
	return []struct {
		name   string
		snap   metrics.Snapshot
		labels []metrics.PromLabel
		extra  []metrics.PromSample
	}{
		{name: "labeled", snap: promSnapshot(),
			labels: []metrics.PromLabel{{Name: "run", Value: "lbm/ladder-hybrid"}, {Name: "1st-label é", Value: "a\"b\\c\nd"}, {Name: "", Value: ""}},
			extra: []metrics.PromSample{
				{Name: "service.jobs.active", Type: "gauge", Help: "jobs\\ now\nrunning \"quoted\"", Value: 2},
				{Name: "service.jobs.done", Type: "counter", Help: "finished jobs", Value: 3, Labels: []metrics.PromLabel{{Name: "job", Value: "j1"}}},
				{Name: "service.jobs.done", Type: "counter", Help: "ignored after the first", Value: 1e21, Labels: []metrics.PromLabel{{Name: "job", Value: "j2"}}},
				{Name: "service.uptime.s", Type: "gauge", Value: math.Inf(1)},
			}},
		{name: "unlabeled", snap: odd},
		{name: "odd, labeled", snap: odd, labels: []metrics.PromLabel{{Name: "k", Value: "v"}}},
		{name: "empty", snap: metrics.Snapshot{}},
		{name: "extras only", labels: []metrics.PromLabel{{Name: "a", Value: "1"}},
			extra: []metrics.PromSample{{Name: "up", Type: "gauge", Value: 1, Labels: []metrics.PromLabel{{Name: "b", Value: "2"}}}}},
	}
}

// TestWritePrometheusGolden pins the exposition of every case in
// promGoldenCases to testdata/prom.golden, which the fmt.Fprintf-based
// writer produced. Regenerate with -update only for an intended change.
func TestWritePrometheusGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range promGoldenCases() {
		got.WriteString("## " + c.name + "\n")
		if err := metrics.WritePrometheus(&got, c.snap, c.labels, c.extra...); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	path := filepath.Join("testdata", "prom.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("exposition differs from %s:\n%s", path, got.String())
	}
}
