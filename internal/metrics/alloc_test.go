//go:build !race

package metrics_test

import (
	"io"
	"testing"

	"ladder/internal/metrics"
)

// TestWritePrometheusAllocs pins the exposition's allocations to a
// constant: the label set, the buffer sized up front, the sorted-name
// scratch and the family-name scratch, however many instruments the
// snapshot holds.
func TestWritePrometheusAllocs(t *testing.T) {
	snap := runRegistry().Snapshot()
	labels := []metrics.PromLabel{{Name: "job", Value: "j1"}, {Name: "run", Value: "lbm/LADDER-Hybrid"}}
	allocs := testing.AllocsPerRun(20, func() {
		if err := metrics.WritePrometheus(io.Discard, snap, labels); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("WritePrometheus: %v allocs per scrape, want at most 6", allocs)
	}
}
