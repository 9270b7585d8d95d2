package circuit

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// DenseSolve solves A·x = b by Gaussian elimination with partial pivoting,
// where A is given in row-major order. It is O(n³) and meant for small
// systems: an independent reference the iterative solver is validated
// against.
func DenseSolve(a []float64, b []float64) ([]float64, error) {
	n := len(b)
	if len(a) != n*n {
		return nil, fmt.Errorf("circuit: dense matrix is %d entries, want %d", len(a), n*n)
	}
	// Work on copies: callers keep their inputs.
	m := append([]float64(nil), a...)
	x := append([]float64(nil), b...)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot: the largest magnitude in this column.
		pivot, pivotVal := col, math.Abs(m[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[r*n+col]); v > pivotVal {
				pivot, pivotVal = r, v
			}
		}
		if pivotVal == 0 {
			return nil, errors.New("circuit: singular matrix")
		}
		if pivot != col {
			for k := 0; k < n; k++ {
				m[col*n+k], m[pivot*n+k] = m[pivot*n+k], m[col*n+k]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		inv := 1 / m[col*n+col]
		for r := col + 1; r < n; r++ {
			f := m[r*n+col] * inv
			if f == 0 {
				continue
			}
			m[r*n+col] = 0
			for k := col + 1; k < n; k++ {
				m[r*n+k] -= f * m[col*n+k]
			}
			x[r] -= f * x[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for k := r + 1; k < n; k++ {
			s -= m[r*n+k] * x[k]
		}
		x[r] = s / m[r*n+r]
	}
	return x, nil
}

// Dense converts the CSR matrix to row-major dense form for DenseSolve.
func (m *CSR) Dense() []float64 {
	out := make([]float64, m.n*m.n)
	for r := 0; r < m.n; r++ {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			out[r*m.n+m.colIdx[k]] = m.values[k]
		}
	}
	return out
}

// Size returns the system dimension.
func (m *CSR) Size() int { return m.n }

func TestDenseSolveKnown(t *testing.T) {
	// [[2,1],[1,3]] x = [3,5] -> x = [0.8, 1.4]
	x, err := DenseSolve([]float64{2, 1, 1, 3}, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-0.8) > 1e-12 || math.Abs(x[1]-1.4) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestDenseSolveNeedsPivoting(t *testing.T) {
	// Zero on the initial diagonal requires a row swap.
	x, err := DenseSolve([]float64{0, 1, 1, 0}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Fatalf("x = %v", x)
	}
}

func TestDenseSolveSingular(t *testing.T) {
	if _, err := DenseSolve([]float64{1, 2, 2, 4}, []float64{1, 2}); err == nil {
		t.Fatal("singular matrix should fail")
	}
}

func TestDenseSolveDimensionMismatch(t *testing.T) {
	if _, err := DenseSolve([]float64{1, 2, 3}, []float64{1, 2}); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
}

func TestDenseSolveLeavesInputsIntact(t *testing.T) {
	a := []float64{2, 1, 1, 3}
	b := []float64{3, 5}
	if _, err := DenseSolve(a, b); err != nil {
		t.Fatal(err)
	}
	if a[0] != 2 || b[0] != 3 {
		t.Fatal("inputs were mutated")
	}
}

// TestCGAgreesWithDense cross-checks the two linear solvers on random
// SPD resistor networks.
func TestCGAgreesWithDense(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		n := 10 + r.Intn(30)
		b := NewMatrixBuilder(n)
		for i := 0; i < n; i++ {
			b.Add(i, i, 0.2+r.Float64())
			if i+1 < n {
				b.StampConductance(i, i+1, 0.1+r.Float64())
			}
			if i+7 < n {
				b.StampConductance(i, i+7, 0.05+r.Float64())
			}
		}
		m := b.Compile()
		if m.Size() != n {
			t.Fatalf("size = %d", m.Size())
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = r.NormFloat64()
		}
		want, err := DenseSolve(m.Dense(), rhs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.SolveCG(rhs, nil, CGOptions{Tol: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d: x[%d] = %v vs dense %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestMNAvsDenseTinyCrossbar solves a tiny crossbar's final linearized
// system with both solvers.
func TestMNAvsDenseTinyCrossbar(t *testing.T) {
	p := smallParams(8, 2)
	mna, err := NewMNA(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mna.Solve(UniformPattern(false), ResetOp{Row: 7, Cols: []int{6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinVd <= 0 || res.MinVd > p.VWrite {
		t.Fatalf("MinVd = %v", res.MinVd)
	}
}
