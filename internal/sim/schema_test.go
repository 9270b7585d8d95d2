package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden fixtures under testdata/")

// collapsedMaps lists JSON object paths whose keys are instrument names
// rather than schema: their (many, geometry-dependent) entries collapse
// to a single "*" child so the fixture pins document structure, not the
// instrument catalog.
var collapsedMaps = map[string]bool{
	"metrics.counters":            true,
	"metrics.gauges":              true,
	"metrics.histograms":          true,
	"metrics.grids":               true,
	"timeline.epochs[].counters":  true,
	"timeline.epochs[].quantiles": true,
}

// schemaPaths walks a decoded JSON document and records every key path,
// with array hops rendered as "[]" (first element only — JSON arrays are
// homogeneous here).
func schemaPaths(v any, path string, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		if collapsedMaps[path] {
			keys := make([]string, 0, len(x))
			for k := range x {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			p := path + ".*"
			out[p] = true
			if len(keys) > 0 {
				schemaPaths(x[keys[0]], p, out)
			}
			return
		}
		for k, val := range x {
			p := k
			if path != "" {
				p = path + "." + k
			}
			out[p] = true
			schemaPaths(val, p, out)
		}
	case []any:
		p := path + "[]"
		out[p] = true
		if len(x) > 0 {
			schemaPaths(x[0], p, out)
		}
	}
}

// checkSchema compares a document's key-path set against a checked-in
// fixture. Regenerate with: go test ./internal/sim -run Schema -update
func checkSchema(t *testing.T, fixture string, doc []byte) {
	t.Helper()
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatalf("document is not valid JSON: %v", err)
	}
	set := map[string]bool{}
	schemaPaths(v, "", set)
	lines := make([]string, 0, len(set))
	for p := range set {
		lines = append(lines, p)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", fixture)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	wantSet := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		wantSet[l] = true
	}
	for _, l := range lines {
		if !wantSet[l] {
			t.Errorf("new key path not in fixture: %s", l)
		}
		delete(wantSet, l)
	}
	for l := range wantSet {
		t.Errorf("fixture key path missing from document: %s", l)
	}
	t.Errorf("schema drifted from %s; if intentional, regenerate with -update and note it in docs/METRICS.md", path)
}

// TestReportSchemaGolden pins the run-report JSON layout (with tracing
// enabled, so the trace section is exercised too): consumers parse these
// documents, so key renames and removals must be deliberate.
func TestReportSchemaGolden(t *testing.T) {
	cfg := testConfig(t, "lbm", SchemeHybrid)
	cfg.TraceSample = 1
	cfg.TimelineInterval = 20_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := NewReport(res).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkSchema(t, "report_schema.golden", buf.Bytes())
}

// TestGridReportSchemaGolden pins the grid-report JSON layout.
func TestGridReportSchemaGolden(t *testing.T) {
	grid, err := RunGrid(Options{
		Instr: 10_000, Seed: 7, Tables: smallTables(t),
		Workloads: []string{"astar"},
		Base:      Config{TimelineInterval: 10_000},
	}, []string{SchemeBaseline})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := NewGridReport(grid)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkSchema(t, "grid_report_schema.golden", buf.Bytes())
}
