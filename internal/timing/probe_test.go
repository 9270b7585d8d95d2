package timing

import "testing"

// TestProbeTables dumps bucket latencies (diagnostic; -run ProbeTables -v).
func TestProbeTables(t *testing.T) {
	ts, err := DefaultTableSet()
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range [][2]int{{3, 3}, {7, 7}} {
		wb, bb := loc[0], loc[1]
		t.Logf("location bucket (%d,%d):", wb, bb)
		t.Logf("  WL-content axis: %v", ts.WL.LatNs[wb][bb])
		t.Logf("  BL-content axis: %v", ts.BL.LatNs[wb][bb])
		t.Logf("  Half (split-reset): %v", ts.Half.LatNs[wb][bb])
	}
}
