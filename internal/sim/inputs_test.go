package sim

import (
	"context"
	"slices"
	"strings"
	"testing"
)

// checkRegistry fails the test unless the registry's counts agree: the
// idle list holds exactly the entries no run holds, at most keepReleased
// of them, and each retained Resident is counted by, and is the one of,
// exactly the entries of its (level, seed). It returns how many entries
// runs hold.
func checkRegistry(t *testing.T) (held int) {
	t.Helper()
	g := &sharedInputs
	g.mu.Lock()
	defer g.mu.Unlock()
	refs := map[residentKey]int{}
	for k, e := range g.entries {
		if e.key != k {
			t.Fatalf("entry %v is filed under %v", e.key, k)
		}
		if e.users < 0 {
			t.Fatalf("entry %v has %d users", k, e.users)
		}
		if idle := slices.Contains(g.idle, e); idle != (e.users == 0) {
			t.Fatalf("entry %v has %d users but idle is %v", k, e.users, idle)
		}
		if e.users > 0 {
			held++
		}
		r := g.rows[k.residentKey]
		if r == nil || r.rows != e.rows {
			t.Fatalf("entry %v views a Resident the registry does not hold for its (level, seed)", k)
		}
		refs[k.residentKey]++
	}
	if len(g.idle) != len(g.entries)-held || len(g.idle) > keepReleased {
		t.Fatalf("%d idle entries of %d with %d held, want every unheld one and at most %d", len(g.idle), len(g.entries), held, keepReleased)
	}
	for k, r := range g.rows {
		if r.refs != refs[k] || r.refs == 0 {
			t.Fatalf("the Resident of %v counts %d entries, %d reference it", k, r.refs, refs[k])
		}
	}
	return held
}

// TestStudyGeometryEditGetsOwnTapes runs one workload at two geometries
// in one RunCells call, as a study whose edit changes Geom would. The
// clamped footprints and core regions differ, so the cells must read
// different streams, which the workload's registry entry keeps apart,
// and each cell must still equal its cold solo Run.
func TestStudyGeometryEditGetsOwnTapes(t *testing.T) {
	defer DropResidents()
	opts := Options{Instr: 4_000, Seed: 9, Tables: smallTables(t), Workloads: []string{"mix-3"}, Jobs: 2}
	opts.Base.Geom = smallGeometry()
	half := func(c *Config) { c.Geom.MatGroupsPerBank /= 2 }
	variants := []Cell{{Scheme: SchemeHybrid}, {Scheme: SchemeHybrid, Edit: half}, {Scheme: SchemeBaseline, Edit: half}}
	cells := crossCells(opts.Workloads, variants)
	cfgs := make([]Config, len(cells))
	for i, c := range cells {
		cfgs[i] = opts.config(c.Workload, c.Scheme)
		if c.Edit != nil {
			c.Edit(&cfgs[i])
		}
	}
	full, err := coreStreams(&cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	halved, err := coreStreams(&cfgs[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range halved {
		if slices.Contains(full, k) {
			t.Fatalf("stream %s/%d is shared across geometries", k.prof.Name, k.seed)
		}
	}
	DropResidents()
	res, err := RunCells(context.Background(), opts, cells)
	if err != nil {
		t.Fatal(err)
	}
	if held := checkRegistry(t); held != 0 {
		t.Fatalf("%d entries still held after the study", held)
	}
	e := machineEntry("mix-3", opts.Seed)
	if e == nil {
		t.Fatal("the registry kept nothing of the study")
	}
	e.mu.Lock()
	for _, k := range slices.Concat(full, halved) {
		if e.tapes[k] == nil {
			t.Errorf("the entry holds no tape for stream %s/%d", k.prof.Name, k.seed)
		}
	}
	e.mu.Unlock()
	for i, cfg := range cfgs {
		DropResidents()
		solo, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cellKey(res[i]), cellKey(solo); got != want {
			t.Errorf("cell %d: study cell differs from its solo run:\n  study: %s\n  solo:  %s", i, got, want)
		}
	}
}

// TestRunsShareRowsAcrossWorkloads checks that runs of two workloads at
// one seed view one Resident: a row's content does not depend on the
// workload, so the second workload reads the rows the first drew.
func TestRunsShareRowsAcrossWorkloads(t *testing.T) {
	defer DropResidents()
	DropResidents()
	var entries []*machineInputs
	for _, w := range []string{"lbm", "mcf"} {
		cfg := testConfig(t, w, SchemeHybrid)
		cfg.InstrPerCore = 4_000
		soloJSON(t, cfg)
		e := machineEntry(w, cfg.Seed)
		if e == nil {
			t.Fatalf("%s: the registry kept nothing of the run", w)
		}
		entries = append(entries, e)
	}
	if entries[0].rows == nil || entries[0].rows != entries[1].rows {
		t.Fatalf("lbm views Resident %p and mcf %p, want one shared", entries[0].rows, entries[1].rows)
	}
	checkRegistry(t)
}

// TestGridLeavesRegistryBounded checks what a grid leaves behind: no
// entry in use, at most keepReleased idle entries, and only the
// Residents those entries reference.
func TestGridLeavesRegistryBounded(t *testing.T) {
	defer DropResidents()
	DropResidents()
	opts := Options{Instr: 3_000, Seed: 5, Tables: smallTables(t), Workloads: []string{"lbm", "mcf", "mix-3", "astar"}, Jobs: 2}
	opts.Base.Geom = smallGeometry()
	if _, err := RunGrid(opts, []string{SchemeBaseline, SchemeHybrid}); err != nil {
		t.Fatal(err)
	}
	if held := checkRegistry(t); held != 0 {
		t.Fatalf("%d entries still held after the grid", held)
	}
	sharedInputs.mu.Lock()
	n, rows := len(sharedInputs.entries), len(sharedInputs.rows)
	sharedInputs.mu.Unlock()
	if n == 0 || n > keepReleased || rows != 1 {
		t.Fatalf("after the grid the registry keeps %d entries and %d Residents, want 1..%d entries sharing one", n, rows, keepReleased)
	}
}

// TestDropWhileHeldKeepsCountsConsistent drops the registry while a run
// holds its entry, and runs another workload at the same seed before
// and after the held run releases its dropped entry. The stale release
// must not count toward the Resident the later runs draw, so that
// Resident lives until the last entry viewing it is evicted.
func TestDropWhileHeldKeepsCountsConsistent(t *testing.T) {
	defer DropResidents()
	DropResidents()
	run := func(w string) *machineInputs {
		t.Helper()
		cfg := testConfig(t, w, SchemeHybrid)
		cfg.InstrPerCore = 4_000
		soloJSON(t, cfg)
		checkRegistry(t)
		return machineEntry(w, cfg.Seed)
	}
	cfg := testConfig(t, "lbm", SchemeHybrid)
	cfg.InstrPerCore = 4_000
	cfg.ProgressEvery = 1_000
	var stale, fresh *machineInputs
	cfg.Progress = func(ProgressInfo) {
		if stale == nil {
			stale = machineEntry("lbm", cfg.Seed)
			DropResidents()
			fresh = run("mcf") // draws a new Resident while lbm holds the old one
		}
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if stale == nil || stale.users != 0 {
		t.Fatalf("the dropped entry is %+v, want one its run released", stale)
	}
	if machineEntry("lbm", cfg.Seed) != nil {
		t.Fatal("the release of a dropped entry brought it back")
	}
	checkRegistry(t)
	if fresh == nil || fresh.rows == stale.rows {
		t.Fatalf("mcf's entry is %+v, want one with a new Resident", fresh)
	}
	// astar and mix-2 view mcf's Resident, and mix-2's release evicts
	// mcf's entry.
	for _, w := range []string{"astar", "mix-2"} {
		if e := run(w); e == nil || e.rows != fresh.rows {
			t.Fatalf("%s views Resident %v, want mcf's %p", w, e, fresh.rows)
		}
	}
	if machineEntry("mcf", cfg.Seed) != nil {
		t.Fatal("mcf's entry was not evicted")
	}
	sharedInputs.mu.Lock()
	r := sharedInputs.rows[fresh.key.residentKey]
	sharedInputs.mu.Unlock()
	if r == nil || r.rows != fresh.rows || r.refs != 2 {
		t.Fatalf("after mcf's eviction the seed's Resident is %+v, want mcf's counted by astar and mix-2", r)
	}
}

// TestGridViewsWithoutBaseline calls every Grid view on a grid run
// without SchemeBaseline: the views normalized to the baseline report 0
// for every cell, and the others report the scheme's own values.
func TestGridViewsWithoutBaseline(t *testing.T) {
	opts := parallelGridOptions(t)
	opts.Workloads = []string{"astar"}
	opts.Jobs = 1
	g, err := RunGrid(opts, []string{SchemeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	normalized := map[string]func() []Row{
		"WriteServiceTime": g.WriteServiceTime,
		"ReadLatency":      g.ReadLatency,
		"Speedup":          g.Speedup,
	}
	for name, view := range normalized {
		for _, r := range view() {
			if v, ok := r.Values[SchemeHybrid]; !ok || v != 0 {
				t.Errorf("%s without a baseline: %s = %v (present %v), want 0", name, r.Workload, v, ok)
			}
		}
	}
	for _, es := range g.DynamicEnergy() {
		if es.Read[SchemeHybrid] != 0 || es.Write[SchemeHybrid] != 0 {
			t.Errorf("DynamicEnergy without a baseline: %s = %v / %v, want 0", es.Workload, es.Read, es.Write)
		}
	}
	own := map[string]func() []Row{
		"ExtraReads":       g.ExtraReads,
		"ExtraWrites":      g.ExtraWrites,
		"CounterDiffs":     g.CounterDiffs,
		"RelativeLifetime": g.RelativeLifetime,
		"FNWCancellation":  g.FNWCancellation,
	}
	for name, view := range own {
		if rows := view(); len(rows) != 1 {
			t.Errorf("%s: %d rows, want 1", name, len(rows))
		}
	}
	if rl := g.RelativeLifetime()[0].Values[SchemeHybrid]; rl <= 0 {
		t.Errorf("RelativeLifetime without a baseline = %v, want the scheme's own value", rl)
	}
	if _, err := NewGridReport(g); err != nil {
		t.Fatal(err)
	}
}

// TestRunGridCanonicalizesSchemeNames checks that a grid keys its
// results by the registered scheme names, so the normalized views find
// the baseline however the caller spelled it, and that it rejects an
// unknown name or two names of one scheme before running any cell.
func TestRunGridCanonicalizesSchemeNames(t *testing.T) {
	opts := parallelGridOptions(t)
	opts.Jobs = 1
	want, err := RunGrid(opts, []string{SchemeBaseline, SchemeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunGrid(opts, []string{"BASELINE", "ladder-hybrid"})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Schemes, want.Schemes) {
		t.Fatalf("Grid.Schemes = %q, want %q", got.Schemes, want.Schemes)
	}
	gs, ws := Average(got.Speedup()).Values, Average(want.Speedup()).Values
	if gs[SchemeHybrid] == 0 || gs[SchemeHybrid] != ws[SchemeHybrid] {
		t.Fatalf("speedup over the mis-spelled baseline = %v, want %v", gs[SchemeHybrid], ws[SchemeHybrid])
	}

	for _, tc := range []struct {
		schemes []string
		want    string
	}{
		{[]string{"baseline", "BASELINE"}, "both name"},
		{[]string{SchemeHybrid, SchemeHybrid}, "both name"},
		{[]string{SchemeBaseline, "no-such-scheme"}, "no-such-scheme"},
	} {
		ran := false
		opts.Progress = func(GridProgress) { ran = true }
		_, err := RunGrid(opts, tc.schemes)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunGrid(%q): err = %v, want one containing %q", tc.schemes, err, tc.want)
		}
		if ran {
			t.Errorf("RunGrid(%q) ran cells before rejecting the scheme list", tc.schemes)
		}
	}
}
