package timing

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ladder/internal/circuit"
)

var updateTables = flag.Bool("update", false, "rewrite testdata/tableset_default.golden from the current generator")

// goldenTableSet renders every number of a table set as the hex of its
// IEEE-754 bits, one labelled value a line, so any bit change in any
// entry shows up as a diff.
func goldenTableSet(ts *TableSet) []byte {
	var b bytes.Buffer
	put := func(label string, v float64) {
		fmt.Fprintf(&b, "%s %016x\n", label, math.Float64bits(v))
	}
	put("Model.C", ts.Model.C)
	put("Model.K", ts.Model.K)
	put("WorstNs", ts.WorstNs)
	for _, tb := range []struct {
		name string
		t    *Table
	}{{"WL", ts.WL}, {"BL", ts.BL}, {"Half", ts.Half}} {
		for wb := range tb.t.LatNs {
			for bb := range tb.t.LatNs[wb] {
				for cb, v := range tb.t.LatNs[wb][bb] {
					put(fmt.Sprintf("%s[%d][%d][%d]", tb.name, wb, bb, cb), v)
				}
			}
		}
	}
	return b.Bytes()
}

// TestTableSetGolden pins the paper's Table 1 table set bit for bit, at
// one and at several worker goroutines: the tables feed every
// cycle-identical simulation golden, so the generator may get faster but
// must not change a single bit. A deliberate change regenerates the file
// with: go test ./internal/timing -run TableSetGolden -update
func TestTableSetGolden(t *testing.T) {
	path := filepath.Join("testdata", "tableset_default.golden")
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			ts, err := NewTableSet(circuit.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			got := goldenTableSet(ts)
			if *updateTables {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if bytes.Equal(got, want) {
				return
			}
			gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if !bytes.Equal(gl[i], wl[i]) {
					t.Fatalf("table set differs from %s at line %d: got %q, want %q", path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("table set differs from %s: %d lines, want %d", path, len(gl), len(wl))
		})
	}
}
