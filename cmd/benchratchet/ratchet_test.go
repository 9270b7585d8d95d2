package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ladder/internal/sim"
)

// writeFile drops test anchor content into a temp dir.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const goodAnchor = `{
  "schema": "ladder.bench/v1",
  "name": "laddersim-lbm-LADDER-Hybrid",
  "workload": "lbm",
  "scheme": "LADDER-Hybrid",
  "metrics": {"instr_per_sec": 1000000, "instructions_retired": 200000}
}`

func TestLoadAnchor(t *testing.T) {
	tests := []struct {
		name    string
		path    func(t *testing.T) string
		wantErr string
	}{
		{
			name: "valid",
			path: func(t *testing.T) string { return writeFile(t, "BENCH_ok.json", goodAnchor) },
		},
		{
			name:    "missing file",
			path:    func(t *testing.T) string { return filepath.Join(t.TempDir(), "BENCH_absent.json") },
			wantErr: "reading anchor",
		},
		{
			name:    "malformed JSON",
			path:    func(t *testing.T) string { return writeFile(t, "BENCH_bad.json", `{"schema": "ladder.bench/v1",`) },
			wantErr: "malformed JSON",
		},
		{
			name: "wrong schema",
			path: func(t *testing.T) string {
				return writeFile(t, "BENCH_schema.json",
					strings.Replace(goodAnchor, "ladder.bench/v1", "ladder.bench/v0", 1))
			},
			wantErr: `schema "ladder.bench/v0"`,
		},
		{
			name: "missing speed metric",
			path: func(t *testing.T) string {
				return writeFile(t, "BENCH_nospeed.json",
					strings.Replace(goodAnchor, "instr_per_sec", "other_metric", 1))
			},
			wantErr: "non-positive instr_per_sec",
		},
		{
			name: "missing workload",
			path: func(t *testing.T) string {
				return writeFile(t, "BENCH_noworkload.json",
					strings.Replace(goodAnchor, `"workload": "lbm"`, `"workload": ""`, 1))
			},
			wantErr: "missing workload/scheme",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, err := LoadAnchor(tt.path(t))
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("LoadAnchor: %v", err)
				}
				if a.Doc.Workload != "lbm" || a.Doc.Metrics["instr_per_sec"] != 1e6 {
					t.Fatalf("LoadAnchor decoded %+v", a.Doc)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("LoadAnchor error = %v, want containing %q", err, tt.wantErr)
			}
		})
	}
}

// TestProvenanceRoundTrip pins the provenance stamp through a write/
// load cycle: a stamped snapshot survives as an anchor, and anchors
// from before the stamp existed still load (nil Provenance).
func TestProvenanceRoundTrip(t *testing.T) {
	doc := sim.BenchReport{
		Schema:   sim.BenchSchema,
		Name:     "laddersim-lbm-LADDER-Hybrid",
		Workload: "lbm",
		Scheme:   "LADDER-Hybrid",
		Metrics:  map[string]float64{"instr_per_sec": 1e6, "instructions_retired": 2e5},
		Provenance: &sim.BenchProvenance{
			GoVersion:  "go1.22.0",
			GOMAXPROCS: 8,
			Label:      "ci-standard",
		},
	}
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := writeFile(t, "BENCH_prov.json", buf.String())
	a, err := LoadAnchor(path)
	if err != nil {
		t.Fatalf("LoadAnchor: %v", err)
	}
	p := a.Doc.Provenance
	if p == nil || p.GoVersion != "go1.22.0" || p.GOMAXPROCS != 8 || p.Label != "ci-standard" {
		t.Fatalf("provenance did not round-trip: %+v", p)
	}

	// Pre-provenance anchors carry no stamp and must still load.
	old, err := LoadAnchor(writeFile(t, "BENCH_old.json", goodAnchor))
	if err != nil {
		t.Fatalf("LoadAnchor(pre-provenance): %v", err)
	}
	if old.Doc.Provenance != nil {
		t.Fatalf("pre-provenance anchor grew a stamp: %+v", old.Doc.Provenance)
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		name        string
		anchor      float64
		fresh       float64
		threshold   float64
		wantVerdict Verdict
	}{
		// The acceptance case: an injected 15% slowdown must fail a 10% budget.
		{"regression beyond budget", 1e6, 0.85e6, 0.10, VerdictRegression},
		{"just past the budget", 1e6, 0.8999e6, 0.10, VerdictRegression},
		{"within budget", 1e6, 0.95e6, 0.10, VerdictOK},
		{"exactly at anchor", 1e6, 1e6, 0.10, VerdictOK},
		{"slightly faster", 1e6, 1.05e6, 0.10, VerdictOK},
		{"improvement marks anchor stale", 1e6, 1.72e6, 0.10, VerdictImproved},
		{"tight budget flags small slip", 1e6, 0.97e6, 0.01, VerdictRegression},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := Compare("x", tt.anchor, tt.fresh, tt.threshold)
			if c.Verdict != tt.wantVerdict {
				t.Fatalf("Compare(%v, %v, %v) verdict = %v, want %v",
					tt.anchor, tt.fresh, tt.threshold, c.Verdict, tt.wantVerdict)
			}
			if want := tt.fresh / tt.anchor; c.Ratio != want {
				t.Fatalf("ratio = %v, want %v", c.Ratio, want)
			}
		})
	}
}

func TestAnyRegression(t *testing.T) {
	ok := Compare("a", 1e6, 1e6, 0.10)
	bad := Compare("b", 1e6, 0.5e6, 0.10)
	if AnyRegression([]Comparison{ok}) {
		t.Fatal("AnyRegression flagged a clean set")
	}
	if !AnyRegression([]Comparison{ok, bad}) {
		t.Fatal("AnyRegression missed a regression")
	}
}

func TestTrajectoryTable(t *testing.T) {
	table := TrajectoryTable([]Comparison{
		Compare("laddersim-mcf-LADDER-Est", 2e6, 2.1e6, 0.10),
		Compare("laddersim-lbm-LADDER-Hybrid", 1e6, 0.5e6, 0.10),
	})
	// Sorted by name, with the verdict visible per row.
	lbm := strings.Index(table, "laddersim-lbm-LADDER-Hybrid")
	mcf := strings.Index(table, "laddersim-mcf-LADDER-Est")
	if lbm < 0 || mcf < 0 || lbm > mcf {
		t.Fatalf("table rows missing or unsorted:\n%s", table)
	}
	if !strings.Contains(table, "REGRESSION") || !strings.Contains(table, "0.50x") {
		t.Fatalf("table missing regression row:\n%s", table)
	}
}

// TestEnoughRuns pins measure's stop rule: never fewer than -runs
// measured runs, and more until they cover minMeasured of wall clock.
func TestEnoughRuns(t *testing.T) {
	for _, tc := range []struct {
		n, runs int
		elapsed time.Duration
		want    bool
	}{
		{0, 3, 0, false},
		{0, 1, 0, false},
		{2, 3, 5 * time.Second, false}, // long runs still take -runs of them
		{3, 3, 300 * time.Millisecond, false},
		{9, 3, minMeasured - time.Nanosecond, false},
		{10, 3, minMeasured, true},
		{3, 3, minMeasured, true},
		{1, 1, 2 * time.Second, true},
	} {
		if got := enoughRuns(tc.n, tc.runs, tc.elapsed); got != tc.want {
			t.Errorf("enoughRuns(%d, %d, %v) = %v, want %v", tc.n, tc.runs, tc.elapsed, got, tc.want)
		}
	}
}
