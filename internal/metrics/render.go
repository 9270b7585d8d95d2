package metrics

import (
	"fmt"
	"strings"
)

// Text renders the snapshot for humans: every instrument in sorted-name
// order, one line each (grids get one line per nonzero row). It is the
// body of laddersim's -metrics output.
func (s Snapshot) Text() string {
	var b strings.Builder
	for _, name := range s.SortedNames() {
		if v, ok := s.Counters[name]; ok {
			fmt.Fprintf(&b, "  %-44s %d\n", name, v)
			continue
		}
		if g, ok := s.Gauges[name]; ok {
			fmt.Fprintf(&b, "  %-44s last %.1f  min %.1f  max %.1f  mean %.2f  (%d samples)\n",
				name, g.Last, g.Min, g.Max, g.Mean, g.Samples)
			continue
		}
		if h, ok := s.Histograms[name]; ok {
			fmt.Fprintf(&b, "  %-44s n %d  mean %.1f  p50 %.1f  p95 %.1f  p99 %.1f  max %.1f\n",
				name, h.Count, h.Mean, h.P50, h.P95, h.P99, h.Max)
			continue
		}
		if g, ok := s.Grids[name]; ok {
			total := uint64(0)
			for _, row := range g.Counts {
				for _, c := range row {
					total += c
				}
			}
			fmt.Fprintf(&b, "  %-44s %dx%d grid, %d total\n", name, g.Rows, g.Cols, total)
			for r, row := range g.Counts {
				nonzero := false
				for _, c := range row {
					if c > 0 {
						nonzero = true
						break
					}
				}
				if !nonzero {
					continue
				}
				fmt.Fprintf(&b, "    row %d:", r)
				for _, c := range row {
					fmt.Fprintf(&b, " %8d", c)
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}
