//go:build !race

package sim

import (
	"io"
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
