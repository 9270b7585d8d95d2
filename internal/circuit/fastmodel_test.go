package circuit

import (
	"math"
	"testing"
)

func TestFastModelMonotoneInRow(t *testing.T) {
	f, err := NewFastModel(smallParams(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, row := range []int{0, 21, 42, 63} {
		res, err := f.Solve(FastOp{Row: row, Cols: []int{0, 1, 2, 3}, WLLRS: 30, BLLRS: 63})
		if err != nil {
			t.Fatal(err)
		}
		if res.MinVd > prev+1e-9 {
			t.Fatalf("Vd increased with row distance at row %d: %v > %v", row, res.MinVd, prev)
		}
		prev = res.MinVd
	}
}

func TestFastModelMonotoneInCol(t *testing.T) {
	f, err := NewFastModel(smallParams(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, base := range []int{0, 20, 40, 60} {
		res, err := f.Solve(FastOp{Row: 32, Cols: []int{base, base + 1, base + 2, base + 3}, WLLRS: 30, BLLRS: 63})
		if err != nil {
			t.Fatal(err)
		}
		if res.MinVd > prev+1e-9 {
			t.Fatalf("Vd increased with col distance at base %d: %v > %v", base, res.MinVd, prev)
		}
		prev = res.MinVd
	}
}

func TestFastModelMonotoneInWLContent(t *testing.T) {
	f, err := NewFastModel(smallParams(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, lrs := range []int{0, 20, 40, 60} {
		res, err := f.Solve(FastOp{Row: 63, Cols: []int{60, 61, 62, 63}, WLLRS: lrs, BLLRS: 63})
		if err != nil {
			t.Fatal(err)
		}
		if res.MinVd > prev+1e-9 {
			t.Fatalf("Vd increased with WL LRS %d: %v > %v", lrs, res.MinVd, prev)
		}
		prev = res.MinVd
	}
}

func TestFastModelMonotoneInBLContent(t *testing.T) {
	f, err := NewFastModel(smallParams(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, lrs := range []int{0, 30, 63} {
		res, err := f.Solve(FastOp{Row: 63, Cols: []int{60, 61, 62, 63}, WLLRS: 30, BLLRS: lrs})
		if err != nil {
			t.Fatal(err)
		}
		if res.MinVd > prev+1e-9 {
			t.Fatalf("Vd increased with BL LRS %d: %v > %v", lrs, res.MinVd, prev)
		}
		prev = res.MinVd
	}
}

func TestFastModelFewerSelectedCellsHigherVd(t *testing.T) {
	// Split-reset rationale: 4 selected cells draw less aggregate current
	// than 8, so each gets a larger drop.
	f, err := NewFastModel(smallParams(64, 8))
	if err != nil {
		t.Fatal(err)
	}
	res8, err := f.Solve(FastOp{Row: 63, Cols: []int{56, 57, 58, 59, 60, 61, 62, 63}, WLLRS: 30, BLLRS: 63})
	if err != nil {
		t.Fatal(err)
	}
	res4, err := f.Solve(FastOp{Row: 63, Cols: []int{56, 57, 58, 59}, WLLRS: 30, BLLRS: 63})
	if err != nil {
		t.Fatal(err)
	}
	if res4.MinVd <= res8.MinVd {
		t.Fatalf("4-cell Vd %v should exceed 8-cell Vd %v", res4.MinVd, res8.MinVd)
	}
}

func TestFastModelRejectsBadOps(t *testing.T) {
	f, err := NewFastModel(smallParams(16, 2))
	if err != nil {
		t.Fatal(err)
	}
	bad := []FastOp{
		{Row: -1, Cols: []int{0}},
		{Row: 0, Cols: nil},
		{Row: 0, Cols: []int{0}, WLLRS: 99},
		{Row: 0, Cols: []int{0}, BLLRS: 99},
	}
	for i, op := range bad {
		if _, err := f.Solve(op); err == nil {
			t.Errorf("op %d: expected error", i)
		}
	}
}

// TestFastModelAgreesWithMNA validates the reduced ladder model against the
// full MNA solver across locations and content levels on small crossbars.
func TestFastModelAgreesWithMNA(t *testing.T) {
	if testing.Short() {
		t.Skip("MNA validation is slow")
	}
	for _, n := range []int{16, 32} {
		p := smallParams(n, 2)
		mna, err := NewMNA(p)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := NewFastModel(p)
		if err != nil {
			t.Fatal(err)
		}
		type cfg struct {
			row, colBase, wlLRS int
		}
		cases := []cfg{
			{0, 0, 0},
			{n - 1, n - 2, 0},
			{n - 1, n - 2, n / 2},
			{n / 2, n / 2, n - 2},
			{n - 1, 0, n / 4},
			{0, n - 2, n / 2},
		}
		for _, c := range cases {
			cols := []int{c.colBase, c.colBase + 1}
			pat := WordlinePattern(n, c.row, c.wlLRS, cols)
			ref, err := mna.Solve(pat, ResetOp{Row: c.row, Cols: cols})
			if err != nil {
				t.Fatalf("n=%d %+v: MNA: %v", n, c, err)
			}
			// The fast model assumes worst-case (all-LRS) bitline content;
			// the MNA pattern above has HRS bitlines, so compare with
			// matching bitline content: zero half-selected LRS cells on
			// bitlines.
			got, err := fast.Solve(FastOp{Row: c.row, Cols: cols, WLLRS: c.wlLRS, BLLRS: 0})
			if err != nil {
				t.Fatalf("n=%d %+v: fast: %v", n, c, err)
			}
			rel := math.Abs(got.MinVd-ref.MinVd) / ref.MinVd
			if rel > 0.10 {
				t.Errorf("n=%d row=%d col=%d wlLRS=%d: fast %v vs MNA %v (rel err %.3f)",
					n, c.row, c.colBase, c.wlLRS, got.MinVd, ref.MinVd, rel)
			}
		}
	}
}

// TestFastModelAgreesWithMNAFullContent validates with LRS content on both
// dimensions (dense crossbar).
func TestFastModelAgreesWithMNAFullContent(t *testing.T) {
	if testing.Short() {
		t.Skip("MNA validation is slow")
	}
	n := 24
	p := smallParams(n, 2)
	mna, err := NewMNA(p)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewFastModel(p)
	if err != nil {
		t.Fatal(err)
	}
	cols := []int{n - 2, n - 1}
	ref, err := mna.Solve(UniformPattern(true), ResetOp{Row: n - 1, Cols: cols})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fast.Solve(FastOp{Row: n - 1, Cols: cols, WLLRS: n - 2, BLLRS: n - 1})
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(got.MinVd-ref.MinVd) / ref.MinVd
	if rel > 0.15 {
		t.Errorf("dense crossbar: fast %v vs MNA %v (rel err %.3f)", got.MinVd, ref.MinVd, rel)
	}
}

// BenchmarkFastModelSolve times one reduced-model solve of the paper's
// 512×512 crossbar at the table's worst corner (farthest wordline and
// bitlines, all-LRS content) and at a mid-table bucket corner.
func BenchmarkFastModelSolve(b *testing.B) {
	p := DefaultParams()
	f, err := NewFastModel(p)
	if err != nil {
		b.Fatal(err)
	}
	cols := func(high int) []int {
		cs := make([]int, p.SelectedCells)
		for i := range cs {
			cs[i] = high - p.SelectedCells + i
		}
		return cs
	}
	for _, c := range []struct {
		name string
		op   FastOp
	}{
		{"worst", FastOp{Row: p.N - 1, Cols: cols(p.N), WLLRS: p.N - p.SelectedCells, BLLRS: p.N - 1}},
		{"mid", FastOp{Row: 255, Cols: cols(256), WLLRS: 255, BLLRS: p.N - 1}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.Solve(c.op); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
