package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"ladder/internal/core"
	"ladder/internal/reram"
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

// TestRunGridProgressSerialized runs a parallel grid whose Options.Progress
// mutates unsynchronized state: the grid's callback mutex is the only
// thing keeping that safe, so the race detector fails this test if
// serialization ever regresses. It also checks the Done counter is
// monotonically increasing and complete, and that the per-run hook in
// Base reaches every cell (it is shared across cells, so it counts
// atomically).
func TestRunGridProgressSerialized(t *testing.T) {
	opts := parallelGridOptions(t)
	opts.Jobs = 4
	var (
		dones     []int // plain slice: appended from worker goroutines, safe only under the callback mutex
		lastTotal int   // likewise
		cellTicks atomic.Int64
	)
	opts.Progress = func(p GridProgress) {
		dones = append(dones, p.Done)
		lastTotal = p.Total
	}
	opts.Base.ProgressEvery = 1_000
	opts.Base.Progress = func(ProgressInfo) { cellTicks.Add(1) }
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
	if cellTicks.Load() == 0 {
		t.Fatal("Base.Progress never fired despite Base.ProgressEvery being set")
	}
	for _, w := range g.Workloads {
		for _, s := range g.Schemes {
			if g.Results[w][s] == nil {
				t.Fatalf("missing result for %s/%s", w, s)
			}
		}
	}
}

// TestRunGridRejectsBaseIdentity: the grid owns each cell's workload,
// scheme, budget, seed and tables, so a Base that sets any of them is an
// error, not a silently overridden field.
func TestRunGridRejectsBaseIdentity(t *testing.T) {
	for _, c := range []struct {
		field string
		edit  func(*Config)
	}{
		{"Workload", func(c *Config) { c.Workload = "lbm" }},
		{"Scheme", func(c *Config) { c.Scheme = SchemeHybrid }},
		{"InstrPerCore", func(c *Config) { c.InstrPerCore = 1_000 }},
		{"Seed", func(c *Config) { c.Seed = 3 }},
		{"Tables", func(c *Config) { c.Tables = smallTables(t) }},
	} {
		opts := parallelGridOptions(t)
		c.edit(&opts.Base)
		_, err := RunGridCtx(context.Background(), opts, []string{SchemeBaseline})
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("Base.%s set: err = %v, want a rejection naming the field", c.field, err)
		}
	}
}

// TestOptionsRejectedBeforeAnyCell: a negative Jobs or an out-of-range
// Base knob fails a grid or study before its first cell runs, naming
// the field. A negative Jobs used to run one worker per CPU, and a bad
// Base knob failed every cell separately.
func TestOptionsRejectedBeforeAnyCell(t *testing.T) {
	for _, c := range []struct {
		field string
		edit  func(*Options)
	}{
		{"Jobs", func(o *Options) { o.Jobs = -1 }},
		{"FaultRate", func(o *Options) { o.Base.FaultRate = 1 }},
		{"RetryMax", func(o *Options) { o.Base.RetryMax = -2 }},
		{"VWLPeriod", func(o *Options) { o.Base.WearLeveling, o.Base.VWLPeriod = true, -5 }},
		{"MetaCache", func(o *Options) { o.Base.MetaCache = core.MetaCacheConfig{SizeBytes: 1000, Ways: 3} }},
		{"Geom", func(o *Options) {
			o.Base.Geom = reram.Geometry{Channels: 2, RanksPerChannel: 1, BanksPerRank: 1, MatGroupsPerBank: 1, MatRows: -4}
		}},
		{"Workloads", func(o *Options) { o.Workloads = []string{"lbm", "lbm"} }},
	} {
		opts := parallelGridOptions(t)
		c.edit(&opts)
		var cells atomic.Int32
		opts.Progress = func(GridProgress) { cells.Add(1) }
		_, gridErr := RunGridCtx(context.Background(), opts, []string{SchemeBaseline})
		_, cellsErr := RunCells(context.Background(), opts, []Cell{{Workload: "astar", Scheme: SchemeHybrid}})
		for _, err := range []error{opts.Validate(), gridErr, cellsErr} {
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%s out of range: err = %v, want a rejection naming it", c.field, err)
			}
		}
		if n := cells.Load(); n != 0 {
			t.Errorf("%s out of range: %d cells ran before the rejection", c.field, n)
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
// byte-equal to one assembled from independent solo runs. A degraded
// Base (faults, wear leveling, timeline) must reach every cell the same
// way at any Jobs. Under -race it also checks the sharing.
func TestRunGridMatchesSoloRuns(t *testing.T) {
	degraded := Config{FaultRate: 0.01, WearLeveling: true, VWLPeriod: 16, TimelineInterval: 5_000}
	for _, tc := range []struct {
		name string
		base Config
		jobs int
	}{
		{"default", Config{}, 4},
		{"degraded-jobs=1", degraded, 1},
		{"degraded-jobs=4", degraded, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{
				Instr:     4_000,
				Seed:      11,
				Tables:    smallTables(t),
				Workloads: []string{"lbm", "mcf", "mix-3"},
				Jobs:      tc.jobs,
				Base:      tc.base,
			}
			grid := checkGridMatchesSolo(t, opts, FigureSchemes())
			if tc.base.FaultRate == 0 {
				return
			}
			var retries, gapMoves uint64
			for _, w := range grid.Workloads {
				for _, s := range grid.Schemes {
					r := grid.Results[w][s]
					if r.Faults == nil || r.Remap == nil || r.Timeline == nil {
						t.Fatalf("%s/%s: degraded Base did not reach the cell", w, s)
					}
					retries += r.Faults.Retries
					gapMoves += r.Remap.GapMoves
				}
			}
			if retries == 0 || gapMoves == 0 {
				t.Fatalf("degraded grid made %d retries and %d gap moves; want both non-zero", retries, gapMoves)
			}
		})
	}
}

// checkGridMatchesSolo runs opts as a grid and each cell as a cold solo
// Run, requires equal cells and byte-equal grid reports, and returns the
// grid. Each reference run drops the registry first, so it draws its
// rows and streams itself rather than replaying the grid's.
func checkGridMatchesSolo(t *testing.T, opts Options, schemes []string) *Grid {
	defer DropResidents()
	grid, err := RunGrid(opts, schemes)
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	solo := &Grid{Workloads: opts.Workloads, Schemes: schemes, Results: map[string]map[string]*Result{}}
	for _, w := range opts.Workloads {
		solo.Results[w] = map[string]*Result{}
		for _, s := range schemes {
			DropResidents()
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
	return grid
}

// cellKey is a cell's deterministic results, store wear included.
func cellKey(r *Result) string {
	return fmt.Sprintf("%s store=%d maxrow=%d touched=%d", goldenKey(r), r.TotalStoreWrites, r.MaxRowWrites, r.TouchedRows)
}
