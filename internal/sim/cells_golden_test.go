package sim

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const (
	cellsGolden        = "testdata/cells.golden"
	cellsNoShiftGolden = "testdata/cells_noshift.golden"
)

// cellConfig is a named edit of a cell's Config.
type cellConfig struct {
	name string
	edit func(*Config)
}

// cellConfigs are the two shapes the cell golden pins: the paper grid's
// default configuration and the degraded one (fault injection, spare
// rows, segment wear leveling with a short gap period, proactive
// retirement) that drives the fault and remap paths through the
// controller.
var cellConfigs = []cellConfig{
	{"default", nil},
	{"degraded", func(c *Config) {
		c.FaultRate = 0.01
		c.SpareRows = 256
		c.WearLeveling = true
		c.VWLPeriod = 16
		c.ProactiveWearLimit = 64
	}},
}

// cellsGoldenText runs every workload under each of schemes in both
// cell configurations and renders each cell's simulated time, retired
// instructions, store writes, gap moves and fault retries, one line per
// cell. The cells use the paper's full 512×512 timing tables: with them
// a dormant-tick shortcut that ignores writebacks moved into the write
// queue shifts two degraded cells (mix-1/Split-reset, mix-7/LADDER-Basic).
func cellsGoldenText(t *testing.T, schemes []string) []byte {
	t.Helper()
	opts := Options{Instr: 20_000, Seed: 3000, Jobs: 2}
	var b bytes.Buffer
	for _, cc := range cellConfigs {
		variants := make([]Cell, 0, len(schemes))
		for _, s := range schemes {
			variants = append(variants, Cell{Scheme: s, Edit: cc.edit})
		}
		cells := CrossCells(opts.WorkloadNames(), variants)
		res, err := RunCells(context.Background(), opts, cells)
		if err != nil {
			t.Fatalf("%s: %v", cc.name, err)
		}
		for i, r := range res {
			var gap, retries uint64
			if r.Remap != nil {
				gap = r.Remap.GapMoves
			}
			if r.Faults != nil {
				retries = r.Faults.Retries
			}
			fmt.Fprintf(&b, "%s %s %s ticks=%d instr=%d store_writes=%d gap_moves=%d retries=%d\n",
				cc.name, cells[i].Workload, cells[i].Scheme,
				r.Ticks, r.InstructionsRetired, r.TotalStoreWrites, gap, retries)
		}
	}
	return b.Bytes()
}

// TestGoldenCells pins every (workload, figure scheme) cell's outcome in
// the default and degraded configurations. The controller's scheduling
// shortcuts (dormant ticks, cached earliest finish) must leave every
// simulated cycle where it was; a cell whose tick count moves means a
// skipped tick was not actually a no-op. Regenerate with:
// go test ./internal/sim -run GoldenCells -update
func TestGoldenCells(t *testing.T) {
	checkCellsGolden(t, cellsGolden, cellsGoldenText(t, FigureSchemes()))
}

// TestGoldenCellsNoShift pins the Figure 15a no-shift arm, which no
// figure grid runs: LADDER-Est's partial counters over the raw,
// unshifted bit layout.
func TestGoldenCellsNoShift(t *testing.T) {
	checkCellsGolden(t, cellsNoShiftGolden, cellsGoldenText(t, []string{SchemeEstNoShift}))
}

// checkCellsGolden compares got with the golden file at path line by
// line, or rewrites the file under -update.
func checkCellsGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(filepath.FromSlash(path), got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.FromSlash(path))
	if err != nil {
		t.Fatalf("reading %s (run with -update to create it): %v", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			if i < len(wl) {
				t.Errorf("cell diverges from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			} else {
				t.Errorf("extra line %d not in %s: %s", i+1, path, gl[i])
			}
		}
	}
	if len(gl) < len(wl) {
		t.Errorf("output is shorter than %s", path)
	}
}
