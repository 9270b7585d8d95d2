package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// parallelGridOptions is the shared fixture: a 2×2 grid small enough to
// run under the race detector yet wide enough to keep several workers
// busy at once.
func parallelGridOptions(t *testing.T) Options {
	return Options{
		Instr:     5_000,
		Seed:      7,
		Tables:    smallTables(t),
		Workloads: []string{"astar", "lbm"},
	}
}

func parallelGridReportJSON(t *testing.T, jobs int) []byte {
	t.Helper()
	opts := parallelGridOptions(t)
	opts.Jobs = jobs
	g, err := RunGrid(opts, []string{SchemeBaseline, SchemeHybrid})
	if err != nil {
		t.Fatalf("RunGrid(jobs=%d): %v", jobs, err)
	}
	rep, err := NewGridReport(g)
	if err != nil {
		t.Fatalf("NewGridReport(jobs=%d): %v", jobs, err)
	}
	b, err := json.MarshalIndent(rep.StripVolatile(), "", "  ")
	if err != nil {
		t.Fatalf("marshaling grid report: %v", err)
	}
	return b
}

// TestRunGridByteIdenticalAcrossJobs is the determinism contract behind
// the service's report cache: for a fixed seed, the grid report is
// byte-identical whether cells ran sequentially or on a worker pool,
// once volatile wall-clock fields are stripped.
func TestRunGridByteIdenticalAcrossJobs(t *testing.T) {
	seq := parallelGridReportJSON(t, 1)
	par := parallelGridReportJSON(t, 4)
	if !bytes.Equal(seq, par) {
		sl, pl := strings.Split(string(seq), "\n"), strings.Split(string(par), "\n")
		for i := range sl {
			if i >= len(pl) || sl[i] != pl[i] {
				t.Fatalf("reports diverge at line %d:\n  jobs=1: %s\n  jobs=4: %s", i+1, sl[i], pl[i])
			}
		}
		t.Fatalf("reports differ in length: jobs=1 %d bytes, jobs=4 %d bytes", len(seq), len(par))
	}
}

// TestRunGridProgressSerialized runs a parallel grid with both callback
// hooks mutating unsynchronized state: the grid's callback mutex is the
// only thing keeping that safe, so the race detector fails this test if
// serialization ever regresses. It also checks the Done counter is
// monotonically increasing and complete.
func TestRunGridProgressSerialized(t *testing.T) {
	opts := parallelGridOptions(t)
	opts.Jobs = 4
	opts.ProgressEvery = 1_000
	var (
		dones     []int // plain slice: appended from worker goroutines, safe only under the callback mutex
		cellTicks int   // likewise
		lastTotal int   //
	)
	opts.Progress = func(p GridProgress) {
		dones = append(dones, p.Done)
		lastTotal = p.Total
	}
	opts.CellProgress = func(workload, scheme string, info ProgressInfo) {
		if workload == "" || scheme == "" {
			t.Errorf("cell progress without identity: %q/%q", workload, scheme)
		}
		cellTicks++
	}
	g, err := RunGrid(opts, []string{SchemeBaseline, SchemeHybrid})
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	if lastTotal != 4 || len(dones) != 4 {
		t.Fatalf("expected 4 completion callbacks with Total=4, got %d callbacks (Total=%d)", len(dones), lastTotal)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("Done not monotonically increasing: %v", dones)
		}
	}
	if cellTicks == 0 {
		t.Fatal("CellProgress never fired despite ProgressEvery being set")
	}
	for _, w := range g.Workloads {
		for _, s := range g.Schemes {
			if g.Results[w][s] == nil {
				t.Fatalf("missing result for %s/%s", w, s)
			}
		}
	}
}

// TestRunGridReportsEveryCellFailure: cells are independent, so one bad
// cell must not mask another's error, and the joined error names each.
func TestRunGridReportsEveryCellFailure(t *testing.T) {
	opts := parallelGridOptions(t)
	opts.Workloads = []string{"astar", "no-such-workload"}
	_, err := RunGrid(opts, []string{SchemeBaseline})
	if err == nil {
		t.Fatal("grid with an unknown workload should fail")
	}
	if !strings.Contains(err.Error(), "no-such-workload") {
		t.Fatalf("error does not name the failing cell: %v", err)
	}
}

// TestRunGridCtxCanceled: a canceled context yields an error, never a
// silently partial grid.
func TestRunGridCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunGridCtx(ctx, parallelGridOptions(t), []string{SchemeBaseline})
	if err == nil {
		t.Fatal("canceled grid should return an error")
	}
	if !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("error does not mention cancellation: %v", err)
	}
}

// TestRunGridMatchesSoloRuns: a grid's cells share resident rows drawn
// once per grid, which must change nothing. Across every figure scheme —
// the shifting schemes' resident transform, BLP's column state and
// Hybrid's metadata fills all read the shared rows — the grid report is
// byte-equal to one assembled from independent solo runs. Under -race it
// also checks the sharing.
func TestRunGridMatchesSoloRuns(t *testing.T) {
	opts := Options{
		Instr:     4_000,
		Seed:      11,
		Tables:    smallTables(t),
		Workloads: []string{"lbm", "mcf", "mix-3"},
		Jobs:      4,
	}
	schemes := FigureSchemes()
	grid, err := RunGrid(opts, schemes)
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	solo := &Grid{Workloads: opts.Workloads, Schemes: schemes, Results: map[string]map[string]*Result{}}
	for _, w := range opts.Workloads {
		solo.Results[w] = map[string]*Result{}
		for _, s := range schemes {
			res, err := Run(opts.config(w, s))
			if err != nil {
				t.Fatalf("Run(%s/%s): %v", w, s, err)
			}
			solo.Results[w][s] = res
			g := grid.Results[w][s]
			if got, want := cellKey(g), cellKey(res); got != want {
				t.Errorf("%s/%s: grid cell differs from its solo run:\n  grid: %s\n  solo: %s", w, s, got, want)
			}
		}
	}
	encode := func(g *Grid) []byte {
		rep, err := NewGridReport(g)
		if err != nil {
			t.Fatalf("NewGridReport: %v", err)
		}
		b, err := json.MarshalIndent(rep.StripVolatile(), "", "  ")
		if err != nil {
			t.Fatalf("marshaling grid report: %v", err)
		}
		return b
	}
	got, want := encode(grid), encode(solo)
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("grid and solo reports diverge at line %d:\n  grid: %s\n  solo: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("reports differ in length: grid %d bytes, solo %d bytes", len(got), len(want))
	}
}

// cellKey is a cell's deterministic results, store wear included.
func cellKey(r *Result) string {
	return fmt.Sprintf("%s store=%d maxrow=%d touched=%d", goldenKey(r), r.TotalStoreWrites, r.MaxRowWrites, r.TouchedRows)
}
