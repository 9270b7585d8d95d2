package evaluation

import (
	"context"
	"math"
	"strings"
	"testing"

	"ladder"
)

// TestEveryExperiment runs every declared experiment at a small budget,
// each on a fresh session. Each must produce non-empty tables whose every
// row carries a finite value under every series (a study declares its
// series labels next to the reduce that returns their values in order,
// so a missing value means a view or reduce left one out), the printer must
// render each table under its title, and an experiment must leave a
// grid to report exactly when it is marked Grid.
func TestEveryExperiment(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			s := &Session{Ctx: context.Background(), Opts: ladder.Options{Instr: 5_000, Seed: 1, Jobs: 2},
				GapPeriods: []int{64}, SpareGrid: []int{0, 16}}
			tables, err := e.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if tb.Title == "" || len(tb.Series) == 0 || len(tb.Rows) == 0 {
					t.Fatalf("empty table %+v", tb)
				}
				for _, r := range tb.Rows {
					for _, series := range tb.Series {
						v, ok := r.Values[series]
						if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
							t.Errorf("%q row %s series %q = %v (present %v)", tb.Title, r.Workload, series, v, ok)
						}
					}
				}
				var out strings.Builder
				Print(&out, tb)
				if lines := strings.Count(out.String(), "\n"); !strings.HasPrefix(out.String(), "\n"+tb.Title+"\n") || lines < len(tb.Rows)+3 {
					t.Errorf("printed table:\n%s", out.String())
				}
			}
			if built := s.ReportGrid() != nil; built != e.Grid {
				t.Errorf("left a grid to report: %v, but Grid is %v", built, e.Grid)
			}
		})
	}
}
