package circuit

import (
	"math"
	"math/rand"
	"testing"
)

// SolveTridiagonal solves a tridiagonal system in place with the Thomas
// algorithm: sub, diag, sup are the three diagonals (sub[0] and
// sup[n-1] are ignored), rhs is overwritten with the solution. The inputs
// diag and rhs are modified.
func SolveTridiagonal(sub, diag, sup, rhs []float64) []float64 {
	n := len(diag)
	for i := 1; i < n; i++ {
		w := sub[i] / diag[i-1]
		diag[i] -= w * sup[i-1]
		rhs[i] -= w * rhs[i-1]
	}
	rhs[n-1] /= diag[n-1]
	for i := n - 2; i >= 0; i-- {
		rhs[i] = (rhs[i] - sup[i]*rhs[i+1]) / diag[i]
	}
	return rhs
}

func TestCSRSolveIdentity(t *testing.T) {
	b := NewMatrixBuilder(4)
	for i := 0; i < 4; i++ {
		b.Add(i, i, 1)
	}
	m := b.Compile()
	rhs := []float64{1, 2, 3, 4}
	x, err := m.SolveCG(rhs, nil, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rhs {
		if math.Abs(x[i]-rhs[i]) > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], rhs[i])
		}
	}
}

func TestCSRDuplicateEntriesMerge(t *testing.T) {
	b := NewMatrixBuilder(2)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2)
	b.Add(1, 1, 1)
	m := b.Compile()
	x := []float64{1, 1}
	dst := make([]float64, 2)
	m.MulVec(x, dst)
	if dst[0] != 3 || dst[1] != 1 {
		t.Fatalf("MulVec = %v, want [3 1]", dst)
	}
}

func TestStampConductanceSymmetric(t *testing.T) {
	b := NewMatrixBuilder(2)
	b.StampConductance(0, 1, 2.0)
	b.Add(0, 0, 1) // ground leak to keep SPD
	b.Add(1, 1, 1)
	m := b.Compile()
	// Matrix: [[3,-2],[-2,3]]; rhs [1,0] -> x = [3/5, 2/5]
	x, err := m.SolveCG([]float64{1, 0}, nil, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-0.6) > 1e-9 || math.Abs(x[1]-0.4) > 1e-9 {
		t.Fatalf("x = %v, want [0.6 0.4]", x)
	}
}

func TestStampConductanceRailNode(t *testing.T) {
	// Negative node index = ideal rail: only diagonal of the other node.
	b := NewMatrixBuilder(1)
	b.StampConductance(0, -1, 5)
	m := b.Compile()
	x, err := m.SolveCG([]float64{10}, nil, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-9 {
		t.Fatalf("x = %v, want 2", x[0])
	}
}

func TestCGRandomSPDSystem(t *testing.T) {
	// Build a random resistor ladder with ground leaks: SPD by
	// construction. Verify CG against residual.
	r := rand.New(rand.NewSource(5))
	const n = 50
	b := NewMatrixBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 0.1+r.Float64())
		if i+1 < n {
			b.StampConductance(i, i+1, 0.5+r.Float64())
		}
	}
	m := b.Compile()
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = r.NormFloat64()
	}
	x, err := m.SolveCG(rhs, nil, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	res := make([]float64, n)
	m.MulVec(x, res)
	for i := range res {
		if math.Abs(res[i]-rhs[i]) > 1e-7 {
			t.Fatalf("residual[%d] = %v", i, res[i]-rhs[i])
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	b := NewMatrixBuilder(3)
	for i := 0; i < 3; i++ {
		b.Add(i, i, 2)
	}
	m := b.Compile()
	x, err := m.SolveCG(make([]float64, 3), nil, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != 0 {
			t.Fatalf("x[%d] = %v, want 0", i, x[i])
		}
	}
}

func TestSolveTridiagonalKnown(t *testing.T) {
	// System: [[2,-1,0],[-1,2,-1],[0,-1,2]] x = [1,0,1] -> x = [1,1,1]
	sub := []float64{0, -1, -1}
	diag := []float64{2, 2, 2}
	sup := []float64{-1, -1, 0}
	rhs := []float64{1, 0, 1}
	x := SolveTridiagonal(sub, diag, sup, rhs)
	for i := range x {
		if math.Abs(x[i]-1) > 1e-12 {
			t.Fatalf("x[%d] = %v, want 1", i, x[i])
		}
	}
}

func TestSolveTridiagonalMatchesCG(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const n = 30
	sub := make([]float64, n)
	diag := make([]float64, n)
	sup := make([]float64, n)
	rhs := make([]float64, n)
	b := NewMatrixBuilder(n)
	for i := 0; i < n; i++ {
		d := 2 + r.Float64()
		diag[i] = d
		b.Add(i, i, d)
		rhs[i] = r.NormFloat64()
		if i+1 < n {
			o := -(0.2 + 0.5*r.Float64())
			sup[i] = o
			sub[i+1] = o
			b.Add(i, i+1, o)
			b.Add(i+1, i, o)
		}
	}
	rhs2 := append([]float64(nil), rhs...)
	want, err := b.Compile().SolveCG(rhs2, nil, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	got := SolveTridiagonal(sub, diag, sup, rhs)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("x[%d]: thomas %v vs cg %v", i, got[i], want[i])
		}
	}
}
