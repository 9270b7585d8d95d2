//go:build !race

package sim

import (
	"io"
	"runtime"
	"testing"
)

// TestReportWriteJSONAllocs pins the run report's encoding, on
// BenchmarkReportWriteJSON's degraded cell, to a handful of
// allocations: the sorted-name scratch of the snapshot and the
// timeline, with the document buffer recycled between writes.
func TestReportWriteJSONAllocs(t *testing.T) {
	rep := degradedReport(t)
	allocs := testing.AllocsPerRun(50, func() {
		if err := rep.WriteJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Errorf("Report.WriteJSON: %v allocs per report, want at most 10", allocs)
	}
}

// TestSteadyStateGridAllocs is the allocation ratchet of a warm process
// rerunning the paper grid (16 workloads × 7 figure schemes, 40k
// instructions per core, two jobs, default tables). Runs hand their
// storage back, so after one warm-up grid a grid of a fresh seed
// allocates little beyond its results' metrics: 3.7 MB, from 27 MB
// before runs recycled their storage. The bound sits about 25% above
// that; objects and GC cycles are logged.
func TestSteadyStateGridAllocs(t *testing.T) {
	defer DropResidents()
	opts := Options{Instr: 40_000, Jobs: 2}
	grid := func(seed int64) {
		opts.Seed = seed
		if _, err := RunGrid(opts, FigureSchemes()); err != nil {
			t.Fatal(err)
		}
	}
	grid(100)
	const grids = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range grids {
		grid(int64(101 + i))
	}
	runtime.ReadMemStats(&after)
	perGrid := float64(after.TotalAlloc-before.TotalAlloc) / grids / 1e6
	t.Logf("per grid: %.2f MB allocated, %d objects, %.2f GC cycles", perGrid,
		(after.Mallocs-before.Mallocs)/grids, float64(after.NumGC-before.NumGC)/grids)
	const bound = 4.6
	if perGrid > bound {
		t.Errorf("a warm grid allocates %.2f MB, want at most %.2f MB", perGrid, bound)
	}
}
