package sim

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"ladder/internal/core"
)

// recycleCells crosses opts' workloads with every figure scheme and Est
// without shifting, in both cell configurations and with a 2 KB
// metadata cache, so runs go through every metadata cache kind, cache
// evictions and spills, BLP's bitline counts and the fault and remap
// paths.
func recycleCells(opts Options) []Cell {
	edits := []func(*Config){func(c *Config) { c.MetaCache = core.MetaCacheConfig{SizeBytes: 2 << 10, Ways: 4, SpillSize: 16} }}
	for _, cc := range cellConfigs {
		edits = append(edits, cc.edit)
	}
	var variants []Cell
	for _, edit := range edits {
		for _, s := range append(FigureSchemes(), SchemeEstNoShift) {
			variants = append(variants, Cell{Scheme: s, Edit: edit})
		}
	}
	return CrossCells(opts.WorkloadNames(), variants)
}

// cellReports runs opts' recycleCells and renders each cell's stripped
// report.
func cellReports(t *testing.T, opts Options) [][]byte {
	t.Helper()
	res, err := RunCells(context.Background(), opts, recycleCells(opts))
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(res))
	for i, r := range res {
		out[i] = reportJSON(t, r)
	}
	return out
}

// sameReports fails the test at the first cell whose report differs.
func sameReports(t *testing.T, opts Options, got, want [][]byte, what string) {
	t.Helper()
	cells := recycleCells(opts)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: cell %d (%s/%s) differs from its run on fresh storage", what, i, cells[i].Workload, cells[i].Scheme)
		}
	}
}

// TestRecycledStorageMatchesCold runs cells on storage that runs of
// other workloads and seeds recycled — store memory, controller queues
// and requests, metadata cache sets, row images and tape chunks — and
// requires reports byte-identical to the same cells run on fresh
// storage.
func TestRecycledStorageMatchesCold(t *testing.T) {
	defer DropResidents()
	opts := Options{Instr: 5_000, Seed: 11, Jobs: 2, Workloads: []string{"lbm", "mcf", "mix-3"}}
	DropResidents()
	cold := cellReports(t, opts)

	// Two grids of other seeds: the registry evicts every machine of the
	// first, recycling its images and tapes, before the cells run again.
	DropResidents()
	for _, seed := range []int64{12, 13} {
		dirty := opts
		dirty.Seed, dirty.Workloads = seed, []string{"astar", "mix-1", "libq"}
		cellReports(t, dirty)
	}
	sameReports(t, opts, cellReports(t, opts), cold, "on recycled storage")
}

// TestConcurrentGridsOnRecycledStorage runs two grids of different
// seeds at once, each recycling storage the other takes up, and
// requires each to equal its run alone. Under -race it also checks that
// no storage is handed to one run while another still uses it.
func TestConcurrentGridsOnRecycledStorage(t *testing.T) {
	defer DropResidents()
	opts := func(seed int64) Options {
		return Options{Instr: 5_000, Seed: seed, Jobs: 2, Workloads: []string{"lbm", "mcf", "mix-3", "astar"}}
	}
	seeds := []int64{21, 22}
	alone := make([][][]byte, len(seeds))
	for i, seed := range seeds {
		DropResidents()
		alone[i] = cellReports(t, opts(seed))
	}
	DropResidents()
	results := make([][]*Result, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = RunCells(context.Background(), opts(seed), recycleCells(opts(seed)))
		}()
	}
	wg.Wait()
	for i, seed := range seeds {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		together := make([][]byte, len(results[i]))
		for j, r := range results[i] {
			together[j] = reportJSON(t, r)
		}
		sameReports(t, opts(seed), together, alone[i], fmt.Sprintf("seed %d beside seed %d", seed, seeds[1-i]))
	}
}
