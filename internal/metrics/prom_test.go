package metrics_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ladder/internal/metrics"
	"ladder/internal/metrics/promcheck"
)

func promSnapshot() metrics.Snapshot {
	reg := metrics.NewRegistry()
	reg.Counter("memctrl.ch0.resets").Add(42)
	reg.Counter("fault.retries").Add(3)
	reg.Gauge("memctrl.ch0.write_queue").Observe(7)
	h := reg.Histogram("memctrl.ch0.reset_latency_ns", []float64{10, 100, 1000})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	grid := reg.Grid("core.est.reset_table_cells", 4, 4)
	for i := 0; i < 9; i++ {
		grid.Inc(1, 2)
	}
	return reg.Snapshot()
}

// TestWritePrometheusLints is the vendored promtool-style gate: every
// exposition the renderer produces must pass promcheck.Lint.
func TestWritePrometheusLints(t *testing.T) {
	var buf bytes.Buffer
	labels := []metrics.PromLabel{{Name: "run", Value: "lbm/ladder-hybrid"}}
	extra := metrics.PromSample{
		Name: "service.jobs.active", Type: "gauge",
		Help: "jobs currently executing", Value: 2,
	}
	if err := metrics.WritePrometheus(&buf, promSnapshot(), labels, extra); err != nil {
		t.Fatal(err)
	}
	if err := promcheck.Lint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("rendered exposition fails lint: %v\n%s", err, buf.String())
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE ladder_memctrl_ch0_resets_total counter",
		`ladder_memctrl_ch0_resets_total{run="lbm/ladder-hybrid"} 42`,
		"# TYPE ladder_memctrl_ch0_write_queue gauge",
		"# TYPE ladder_memctrl_ch0_reset_latency_ns histogram",
		`ladder_memctrl_ch0_reset_latency_ns_bucket{run="lbm/ladder-hybrid",le="+Inf"} 3`,
		`ladder_memctrl_ch0_reset_latency_ns_count{run="lbm/ladder-hybrid"} 3`,
		// The 4×4 grid collapses to one counter, not 16 series.
		`ladder_core_est_reset_table_cells_total{run="lbm/ladder-hybrid"} 9`,
		"# HELP ladder_service_jobs_active jobs currently executing",
		`ladder_service_jobs_active{run="lbm/ladder-hybrid"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Every sample line is namespaced.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "ladder_") {
			t.Errorf("sample outside the ladder_ namespace: %q", line)
		}
	}
}

// TestWritePrometheusCumulativeBuckets pins the bucket transform: the
// registry stores per-bucket counts, the exposition needs cumulative.
func TestWritePrometheusCumulativeBuckets(t *testing.T) {
	var buf bytes.Buffer
	if err := metrics.WritePrometheus(&buf, promSnapshot(), nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`ladder_memctrl_ch0_reset_latency_ns_bucket{le="10"} 1`,
		`ladder_memctrl_ch0_reset_latency_ns_bucket{le="100"} 2`,
		`ladder_memctrl_ch0_reset_latency_ns_bucket{le="1000"} 2`,
		`ladder_memctrl_ch0_reset_latency_ns_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

// TestWritePrometheusLabelEscaping pins label-value escaping: quotes,
// backslashes and newlines must survive a round trip through a scraper.
func TestWritePrometheusLabelEscaping(t *testing.T) {
	var buf bytes.Buffer
	labels := []metrics.PromLabel{{Name: "job", Value: "a\"b\\c\nd"}}
	if err := metrics.WritePrometheus(&buf, metrics.Snapshot{}, labels,
		metrics.PromSample{Name: "up", Type: "gauge", Value: 1}); err != nil {
		t.Fatal(err)
	}
	want := `ladder_up{job="a\"b\\c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("exposition missing %q\n%s", want, buf.String())
	}
	if err := promcheck.Lint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("escaped exposition fails lint: %v", err)
	}
}

// TestWritePrometheusRejectsBadExtra pins the extra-sample type check.
func TestWritePrometheusRejectsBadExtra(t *testing.T) {
	var buf bytes.Buffer
	err := metrics.WritePrometheus(&buf, metrics.Snapshot{}, nil,
		metrics.PromSample{Name: "x", Type: "histogram", Value: 1})
	if err == nil {
		t.Fatal("histogram-typed extra sample should be rejected")
	}
}

// TestWritePrometheusDeterministic pins byte-identical output for
// identical snapshots (map iteration must not leak through).
func TestWritePrometheusDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	snap := promSnapshot()
	if err := metrics.WritePrometheus(&a, snap, nil); err != nil {
		t.Fatal(err)
	}
	if err := metrics.WritePrometheus(&b, snap, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical snapshots rendered differently")
	}
}

// runRegistry builds a registry with a figure cell's instrument catalog:
// 64 counters (32 of them per-bank write counts), 4 gauges, 7
// 17-bound histograms and two 8×8 grids, all observed.
func runRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	for ch := 0; ch < 2; ch++ {
		for rank := 0; rank < 2; rank++ {
			for bank := 0; bank < 8; bank++ {
				reg.Counter(fmt.Sprintf("reram.ch%d.rank%d.bank%d.writes", ch, rank, bank)).Add(uint64(100*ch + 10*rank + bank))
			}
		}
	}
	for i := 0; i < 32; i++ {
		reg.Counter(fmt.Sprintf("core.layer%d.events", i)).Add(uint64(i * 12345))
	}
	for i := 0; i < 4; i++ {
		reg.Gauge(fmt.Sprintf("memctrl.ch%d.write_queue", i)).Observe(float64(i) + 0.5)
	}
	for i := 0; i < 7; i++ {
		h := reg.Histogram(fmt.Sprintf("memctrl.ch%d.reset_latency_ns", i), metrics.LinearBounds(32, 40, 17))
		for v := 0; v < 700; v += 7 {
			h.Observe(float64(v) + 0.25)
		}
	}
	for i := 0; i < 2; i++ {
		g := reg.Grid(fmt.Sprintf("memctrl.ch%d.reset_table_cells", i), 8, 8)
		for r := 0; r < 8; r++ {
			g.Inc(r, (r*3)%8)
		}
	}
	return reg
}

// BenchmarkWritePrometheus times one scrape's exposition of a figure
// cell's snapshot.
func BenchmarkWritePrometheus(b *testing.B) {
	snap := runRegistry().Snapshot()
	labels := []metrics.PromLabel{{Name: "job", Value: "j1"}}
	var buf bytes.Buffer
	b.ReportAllocs()
	for b.Loop() {
		buf.Reset()
		if err := metrics.WritePrometheus(&buf, snap, labels); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistrySnapshot times freezing a figure cell's registry.
func BenchmarkRegistrySnapshot(b *testing.B) {
	reg := runRegistry()
	b.ReportAllocs()
	for b.Loop() {
		promSink = reg.Snapshot()
	}
}

var promSink metrics.Snapshot
