package sim

import (
	"context"
	"slices"
	"strings"
	"testing"
)

// liveTapes returns the pool's drawn tapes with their reader counts.
// Entries of streams no cell has started reading yet hold no tape.
func liveTapes(p *inputPool) map[streamKey]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[streamKey]int, len(p.tapes))
	for k, st := range p.tapes {
		if st.tape != nil {
			out[k] = st.readers
		}
	}
	return out
}

// TestInputPoolReleasesTapes checks the tapes' lifetime on a sequential
// grid: after each cell, the pool holds exactly the streams that a
// finished cell read and a later cell still will, each counting the
// later cells as its readers, and nothing once the grid is done.
func TestInputPoolReleasesTapes(t *testing.T) {
	opts := Options{Instr: 3_000, Seed: 5, Tables: smallTables(t), Jobs: 1}
	opts.Base.Geom = smallGeometry()
	cells := crossCells([]string{"lbm", "mix-3"}, []cell{{scheme: SchemeBaseline}, {scheme: SchemeHybrid}, {scheme: SchemeBLP}})
	streams := make([][]streamKey, len(cells))
	for i, c := range cells {
		cfg := opts.config(c.workload, c.scheme)
		var err error
		if streams[i], err = coreStreams(&cfg); err != nil {
			t.Fatal(err)
		}
	}
	pool := new(inputPool)
	opts.Progress = func(p GridProgress) {
		done := p.Done - 1 // Jobs 1: cells finish in order
		want := map[streamKey]int{}
		for j := done + 1; j < len(cells); j++ {
			for _, k := range streams[j] {
				if slices.ContainsFunc(streams[:done+1], func(ks []streamKey) bool { return slices.Contains(ks, k) }) {
					want[k]++
				}
			}
		}
		got := liveTapes(pool)
		if len(got) != len(want) {
			t.Errorf("after cell %d: pool holds %d tapes, want %d", done, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Errorf("after cell %d: stream %s/%d has %d readers left, want %d", done, k.prof.Name, k.seed, got[k], n)
			}
		}
	}
	if _, err := runCells(context.Background(), opts, pool, cells); err != nil {
		t.Fatal(err)
	}
	if n := len(pool.tapes); n != 0 {
		t.Fatalf("pool retains %d streams after the grid", n)
	}
}

// TestStudyGeometryEditGetsOwnTapes runs one workload at two geometries
// in one runCells call, as a study whose edit changes Geom would. The
// clamped footprints and core regions differ, so the cells must read
// different streams, and each must still equal its solo Run.
func TestStudyGeometryEditGetsOwnTapes(t *testing.T) {
	opts := Options{Instr: 4_000, Seed: 9, Tables: smallTables(t), Workloads: []string{"mix-3"}, Jobs: 2}
	opts.Base.Geom = smallGeometry()
	half := func(c *Config) { c.Geom.MatGroupsPerBank /= 2 }
	variants := []cell{{scheme: SchemeHybrid}, {scheme: SchemeHybrid, edit: half}, {scheme: SchemeBaseline, edit: half}}
	cells := crossCells(opts.Workloads, variants)
	cfgs := make([]Config, len(cells))
	for i, c := range cells {
		cfgs[i] = opts.config(c.workload, c.scheme)
		if c.edit != nil {
			c.edit(&cfgs[i])
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
	pool := new(inputPool)
	res, err := runCells(context.Background(), opts, pool, cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		solo, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cellKey(res[i]), cellKey(solo); got != want {
			t.Errorf("cell %d: study cell differs from its solo run:\n  study: %s\n  solo:  %s", i, got, want)
		}
	}
	if n := len(pool.tapes); n != 0 {
		t.Fatalf("pool retains %d streams after the study", n)
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
