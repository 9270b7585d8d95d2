package circuit

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Minimal sparse symmetric linear algebra for the MNA solver: a coordinate
// builder, CSR storage, and a Jacobi-preconditioned conjugate-gradient
// solver. The crossbar conductance matrix is symmetric positive definite
// because every node has a resistive path to a driven rail.

type triplet struct {
	row, col int
	val      float64
}

// MatrixBuilder accumulates symmetric conductance stamps in coordinate
// form. Duplicate entries are summed when compiled.
type MatrixBuilder struct {
	n       int
	entries []triplet
}

// NewMatrixBuilder returns a builder for an n x n system.
func NewMatrixBuilder(n int) *MatrixBuilder {
	return &MatrixBuilder{n: n, entries: make([]triplet, 0, 8*n)}
}

// Add accumulates val at (row, col).
func (b *MatrixBuilder) Add(row, col int, val float64) {
	if row < 0 || row >= b.n || col < 0 || col >= b.n {
		panic(fmt.Sprintf("circuit: matrix index (%d,%d) out of range %d", row, col, b.n))
	}
	b.entries = append(b.entries, triplet{row, col, val})
}

// StampConductance stamps a two-terminal conductance g between nodes a and
// b using standard MNA stencils. A negative node index denotes a driven
// rail (ideal source) and contributes only to the diagonal of the other
// node; the source current is handled by the caller via the RHS.
func (b *MatrixBuilder) StampConductance(a, c int, g float64) {
	if a >= 0 {
		b.Add(a, a, g)
	}
	if c >= 0 {
		b.Add(c, c, g)
	}
	if a >= 0 && c >= 0 {
		b.Add(a, c, -g)
		b.Add(c, a, -g)
	}
}

// CSR is a compressed sparse row matrix.
type CSR struct {
	n       int
	rowPtr  []int
	colIdx  []int
	values  []float64
	diagInv []float64 // Jacobi preconditioner
}

// Compile sorts, merges and freezes the builder into CSR form.
func (b *MatrixBuilder) Compile() *CSR {
	sort.Slice(b.entries, func(i, j int) bool {
		if b.entries[i].row != b.entries[j].row {
			return b.entries[i].row < b.entries[j].row
		}
		return b.entries[i].col < b.entries[j].col
	})
	m := &CSR{n: b.n, rowPtr: make([]int, b.n+1)}
	for i := 0; i < len(b.entries); {
		e := b.entries[i]
		v := 0.0
		for i < len(b.entries) && b.entries[i].row == e.row && b.entries[i].col == e.col {
			v += b.entries[i].val
			i++
		}
		m.colIdx = append(m.colIdx, e.col)
		m.values = append(m.values, v)
		m.rowPtr[e.row+1] = len(m.values)
	}
	for r := 1; r <= b.n; r++ {
		if m.rowPtr[r] == 0 {
			m.rowPtr[r] = m.rowPtr[r-1]
		}
	}
	m.diagInv = make([]float64, b.n)
	for r := 0; r < b.n; r++ {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			if m.colIdx[k] == r && m.values[k] != 0 {
				m.diagInv[r] = 1 / m.values[k]
			}
		}
	}
	return m
}

// MulVec computes dst = M * x.
func (m *CSR) MulVec(x, dst []float64) {
	for r := 0; r < m.n; r++ {
		s := 0.0
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			s += m.values[k] * x[m.colIdx[k]]
		}
		dst[r] = s
	}
}

// CGOptions tunes the conjugate-gradient solve.
type CGOptions struct {
	// Tol is the relative residual tolerance ‖r‖/‖b‖.
	Tol float64
	// MaxIter caps iterations; 0 selects 20·n.
	MaxIter int
}

// ErrNoConvergence is returned when CG exhausts its iteration budget.
var ErrNoConvergence = errors.New("circuit: conjugate gradient did not converge")

// SolveCG solves M x = rhs with Jacobi-preconditioned conjugate gradients,
// starting from x0 (reused as the solution buffer if non-nil).
func (m *CSR) SolveCG(rhs, x0 []float64, opt CGOptions) ([]float64, error) {
	if opt.Tol == 0 {
		opt.Tol = 1e-9
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 20 * m.n
	}
	n := m.n
	x := x0
	if x == nil {
		x = make([]float64, n)
	}
	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	m.MulVec(x, r)
	bnorm := 0.0
	for i := range rhs {
		r[i] = rhs[i] - r[i]
		bnorm += rhs[i] * rhs[i]
	}
	bnorm = math.Sqrt(bnorm)
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return x, nil
	}
	rz := 0.0
	for i := range r {
		z[i] = r[i] * m.diagInv[i]
		p[i] = z[i]
		rz += r[i] * z[i]
	}
	for iter := 0; iter < opt.MaxIter; iter++ {
		m.MulVec(p, ap)
		pap := 0.0
		for i := range p {
			pap += p[i] * ap[i]
		}
		if pap <= 0 {
			return x, fmt.Errorf("circuit: matrix not positive definite (p·Ap = %g)", pap)
		}
		alpha := rz / pap
		rnorm := 0.0
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
			rnorm += r[i] * r[i]
		}
		if math.Sqrt(rnorm) <= opt.Tol*bnorm {
			return x, nil
		}
		rzNew := 0.0
		for i := range r {
			z[i] = r[i] * m.diagInv[i]
			rzNew += r[i] * z[i]
		}
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return x, ErrNoConvergence
}
