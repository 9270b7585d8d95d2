package sim

import (
	"bytes"
	"testing"
)

const gridReportGolden = "testdata/grid_report.golden"

// TestGoldenGridReport pins the stripped JSON of a small degraded grid
// report: the merged counters, gauge moments, histogram quantiles, grid
// cells and merged timeline, which grid_report_schema.golden pins only
// by key. Regenerate with:
// go test ./internal/sim -run GoldenGridReport -update
func TestGoldenGridReport(t *testing.T) {
	grid, err := RunGrid(Options{
		Instr: 5_000, Seed: 7, Jobs: 2,
		Workloads: []string{"lbm", "mix-7"},
		Base: Config{
			FaultRate:        0.01,
			WearLeveling:     true,
			VWLPeriod:        16,
			TimelineInterval: 5_000,
		},
	}, []string{SchemeBaseline, SchemeBasic, SchemeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := NewGridReport(grid)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gr.StripVolatile().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkCellsGolden(t, gridReportGolden, buf.Bytes())
}
