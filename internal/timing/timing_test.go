package timing

import (
	"math"
	"math/rand"
	"testing"

	"ladder/internal/circuit"
)

// testParams is a smaller crossbar so table generation stays fast in unit
// tests; N must remain divisible by Buckets.
func testParams() circuit.Params {
	p := circuit.DefaultParams()
	p.N = 128
	return p
}

func TestModelLatencyClamped(t *testing.T) {
	m := Model{C: 1e6, K: 5, MinNs: 29, MaxNs: 658}
	if got := m.Latency(100); got != 29 {
		t.Fatalf("high Vd latency = %v, want clamp at 29", got)
	}
	if got := m.Latency(0); got != 658 {
		t.Fatalf("zero Vd latency = %v, want clamp at 658", got)
	}
}

func TestModelLatencyMonotone(t *testing.T) {
	m := Model{C: 1e4, K: 3, MinNs: 29, MaxNs: 658}
	prev := math.Inf(1)
	for vd := 0.0; vd <= 3.0; vd += 0.1 {
		l := m.Latency(vd)
		if l > prev {
			t.Fatalf("latency increased with Vd at %v", vd)
		}
		prev = l
	}
}

func TestCalibrateHitsPublishedRange(t *testing.T) {
	p := testParams()
	m, err := Calibrate(p)
	if err != nil {
		t.Fatal(err)
	}
	f, err := circuit.NewFastModel(p)
	if err != nil {
		t.Fatal(err)
	}
	best, err := f.Solve(circuit.FastOp{Row: 0, Cols: []int{0, 1, 2, 3, 4, 5, 6, 7}, WLLRS: 0, BLLRS: p.N - 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Latency(best.MinVd); math.Abs(got-MinLatencyNs) > 0.5 {
		t.Fatalf("best corner latency = %v, want %v", got, MinLatencyNs)
	}
	cols := []int{p.N - 8, p.N - 7, p.N - 6, p.N - 5, p.N - 4, p.N - 3, p.N - 2, p.N - 1}
	worst, err := f.Solve(circuit.FastOp{Row: p.N - 1, Cols: cols, WLLRS: p.N - 8, BLLRS: p.N - 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Latency(worst.MinVd); math.Abs(got-MaxLatencyNs) > 0.5 {
		t.Fatalf("worst corner latency = %v, want %v", got, MaxLatencyNs)
	}
}

func TestGenerateTableMonotone(t *testing.T) {
	p := testParams()
	m, err := Calibrate(p)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Generate(p, m, TableOptions{Content: WLContent})
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-9
	for wb := 0; wb < Buckets; wb++ {
		for bb := 0; bb < Buckets; bb++ {
			for cb := 0; cb < Buckets; cb++ {
				v := tbl.LatNs[wb][bb][cb]
				if v < MinLatencyNs-eps || v > MaxLatencyNs+eps {
					t.Fatalf("entry (%d,%d,%d) = %v outside [%d,%d]", wb, bb, cb, v, MinLatencyNs, MaxLatencyNs)
				}
				if wb > 0 && tbl.LatNs[wb-1][bb][cb] > v+eps {
					t.Fatalf("not monotone in WL at (%d,%d,%d)", wb, bb, cb)
				}
				if bb > 0 && tbl.LatNs[wb][bb-1][cb] > v+eps {
					t.Fatalf("not monotone in BL at (%d,%d,%d)", wb, bb, cb)
				}
				if cb > 0 && tbl.LatNs[wb][bb][cb-1] > v+eps {
					t.Fatalf("not monotone in content at (%d,%d,%d)", wb, bb, cb)
				}
			}
		}
	}
}

func TestTableLookupBucketsAndClamps(t *testing.T) {
	tbl := &Table{Granularity: 16}
	for i := 0; i < Buckets; i++ {
		for j := 0; j < Buckets; j++ {
			for k := 0; k < Buckets; k++ {
				tbl.LatNs[i][j][k] = float64(i*100 + j*10 + k)
			}
		}
	}
	if got := tbl.Lookup(0, 0, 0); got != 0 {
		t.Fatalf("Lookup(0,0,0) = %v", got)
	}
	if got := tbl.Lookup(17, 33, 49); got != 123 {
		t.Fatalf("Lookup(17,33,49) = %v, want 123", got)
	}
	// Above-range indices clamp to the last bucket.
	if got := tbl.Lookup(9999, 9999, 9999); got != 777 {
		t.Fatalf("Lookup(big) = %v, want 777", got)
	}
	if got := tbl.Lookup(-5, -5, -5); got != 0 {
		t.Fatalf("Lookup(negative) = %v, want 0", got)
	}
}

func TestWorstCaseIsMaxEntry(t *testing.T) {
	tbl := &Table{Granularity: 16}
	tbl.LatNs[3][4][5] = 123
	if got := tbl.WorstCase(); got != 123 {
		t.Fatalf("WorstCase = %v, want 123", got)
	}
}

func TestLocationOnlyUsesWorstContent(t *testing.T) {
	tbl := &Table{Granularity: 16}
	tbl.LatNs[2][2][Buckets-1] = 99
	tbl.LatNs[2][2][0] = 1
	if got := tbl.LocationOnly(40, 40); got != 99 {
		t.Fatalf("LocationOnly = %v, want 99", got)
	}
}

func TestShrinkRangeCompressesContentSpread(t *testing.T) {
	tbl := &Table{Granularity: 16}
	for i := range tbl.LatNs {
		for j := range tbl.LatNs[i] {
			for k := range tbl.LatNs[i][j] {
				tbl.LatNs[i][j][k] = 100
			}
		}
	}
	tbl.LatNs[0][0][Buckets-1] = 200 // worst content at location (0,0)
	tbl.LatNs[0][0][0] = 40          // best content
	s := tbl.ShrinkRange(2)
	// The worst-content guardband stays; faster levels move toward it.
	if got := s.LatNs[0][0][Buckets-1]; got != 200 {
		t.Fatalf("worst-content entry moved: %v", got)
	}
	if got := s.LatNs[0][0][0]; got != 120 {
		t.Fatalf("best-content entry = %v, want 120", got)
	}
	// Locations with no content spread are untouched.
	if got := s.LatNs[3][3][2]; got != 100 {
		t.Fatalf("flat location changed: %v", got)
	}
}

func TestShrinkRangeBadFactor(t *testing.T) {
	tbl := &Table{Granularity: 16}
	tbl.LatNs[1][1][1] = 10
	s := tbl.ShrinkRange(0)
	if s.LatNs[1][1][1] != 10 {
		t.Fatal("factor<=0 should leave the table unchanged")
	}
}

func TestGenerateRejectsBadOptions(t *testing.T) {
	p := testParams()
	m := Model{C: 1, K: 1, MinNs: 29, MaxNs: 658}
	if _, err := Generate(p, m, TableOptions{SelectedCells: -1}); err == nil {
		t.Fatal("expected error for negative selected cells")
	}
	p2 := p
	p2.N = 100 // not divisible by 8
	if _, err := Generate(p2, m, TableOptions{}); err == nil {
		t.Fatal("expected error for non-divisible N")
	}
	if _, err := Generate(p, m, TableOptions{Content: ContentDim(9)}); err == nil {
		t.Fatal("expected error for unknown content dim")
	}
}

func TestTableSetSplitResetFaster(t *testing.T) {
	ts, err := NewTableSet(testParams())
	if err != nil {
		t.Fatal(err)
	}
	// A 4-cell half-RESET phase must be at least as fast as a full 8-cell
	// RESET at every operating point.
	for wb := 0; wb < Buckets; wb++ {
		for bb := 0; bb < Buckets; bb++ {
			for cb := 0; cb < Buckets; cb++ {
				if ts.Half.LatNs[wb][bb][cb] > ts.WL.LatNs[wb][bb][cb]+1e-9 {
					t.Fatalf("half-reset slower at (%d,%d,%d): %v > %v",
						wb, bb, cb, ts.Half.LatNs[wb][bb][cb], ts.WL.LatNs[wb][bb][cb])
				}
			}
		}
	}
	if ts.WorstNs < MaxLatencyNs-1 {
		t.Fatalf("worst case %v should be near %v", ts.WorstNs, MaxLatencyNs)
	}
}

func TestContentCurveMonotone(t *testing.T) {
	ts, err := NewTableSet(testParams())
	if err != nil {
		t.Fatal(err)
	}
	curve := ts.ContentCurve(ts.WL.Granularity*Buckets-1, ts.WL.Granularity*Buckets-1)
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1]-1e-9 {
			t.Fatalf("content curve not monotone at %d: %v", i, curve)
		}
	}
	if curve[len(curve)-1] <= curve[0] {
		t.Fatalf("content curve flat: %v — no content dependence", curve)
	}
}

func TestSurfaceExtremes(t *testing.T) {
	ts, err := NewTableSet(testParams())
	if err != nil {
		t.Fatal(err)
	}
	empty := ts.Surface(0)
	full := ts.Surface(Buckets - 1)
	// All-'1's content must never be faster than all-'0's (Figure 11).
	for wb := 0; wb < Buckets; wb++ {
		for bb := 0; bb < Buckets; bb++ {
			if full[wb][bb] < empty[wb][bb]-1e-9 {
				t.Fatalf("surface inversion at (%d,%d)", wb, bb)
			}
		}
	}
	// Out-of-range bucket arguments clamp rather than panic.
	_ = ts.Surface(-1)
	_ = ts.Surface(99)
}

func TestDefaultTableSetCachedAndSane(t *testing.T) {
	a, err := DefaultTableSet()
	if err != nil {
		t.Fatal(err)
	}
	b, err := DefaultTableSet()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("DefaultTableSet not cached")
	}
	if a.WL.Granularity != 64 {
		t.Fatalf("granularity = %d, want 64", a.WL.Granularity)
	}
	// Dynamic range should cover most of the published window.
	min := a.WL.LatNs[0][0][0]
	if min > 2*MinLatencyNs {
		t.Fatalf("best entry %v too slow; expected near %v", min, MinLatencyNs)
	}
	if a.WorstNs < MaxLatencyNs-1 {
		t.Fatalf("worst entry %v; expected near %v", a.WorstNs, MaxLatencyNs)
	}
}

// BenchmarkNewTableSet times a cold generation of the paper's Table 1
// table set: calibration plus the three 8×8×8 sweeps, on GOMAXPROCS
// workers.
func BenchmarkNewTableSet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewTableSet(circuit.DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// lookupSink keeps BenchmarkTableLookup's result live.
var lookupSink float64

// BenchmarkTableLookup times one Table.Lookup at random operating points
// of a 512×512 crossbar, the query every content-aware write makes. The
// entries are synthetic: lookup cost does not depend on their values.
func BenchmarkTableLookup(b *testing.B) {
	tbl := &Table{Granularity: 512 / Buckets}
	for i := 0; i < Buckets; i++ {
		for j := 0; j < Buckets; j++ {
			for k := 0; k < Buckets; k++ {
				tbl.LatNs[i][j][k] = float64(i*100 + j*10 + k)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	args := make([][3]int, 4096)
	for i := range args {
		args[i] = [3]int{rng.Intn(512), rng.Intn(512), rng.Intn(512)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := args[i&4095]
		lookupSink += tbl.Lookup(a[0], a[1], a[2])
	}
}
