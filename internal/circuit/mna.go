package circuit

import (
	"fmt"
	"math"
)

// Pattern describes the resistive state of every cell in a crossbar:
// LRS(i, j) reports whether the cell at wordline i, bitline j stores a
// logical '1' (low-resistance state).
type Pattern interface {
	LRS(row, col int) bool
}

// PatternFunc adapts a function to the Pattern interface.
type PatternFunc func(row, col int) bool

// LRS implements Pattern.
func (f PatternFunc) LRS(row, col int) bool { return f(row, col) }

// UniformPattern returns a pattern where every cell is in the given state.
func UniformPattern(lrs bool) Pattern {
	return PatternFunc(func(int, int) bool { return lrs })
}

// WordlinePattern returns a pattern with `count` LRS cells spread evenly
// across the columns of wordline `row` (excluding the given selected
// columns), all other cells HRS. It reproduces the aggregate the LADDER
// latency model is keyed on: the LRS population of the selected wordline.
func WordlinePattern(n, row, count int, selected []int) Pattern {
	sel := make(map[int]bool, len(selected))
	for _, c := range selected {
		sel[c] = true
	}
	avail := make([]int, 0, n)
	for j := 0; j < n; j++ {
		if !sel[j] {
			avail = append(avail, j)
		}
	}
	if count > len(avail) {
		count = len(avail)
	}
	lrs := make(map[int]bool, count)
	for k := 0; k < count; k++ {
		// Even spread across the available columns.
		lrs[avail[k*len(avail)/max(count, 1)]] = true
	}
	return PatternFunc(func(i, j int) bool { return i == row && lrs[j] })
}

// ResetOp describes one RESET operation: the selected wordline and the
// selected bitlines (the cells being switched LRS→HRS).
type ResetOp struct {
	Row  int
	Cols []int
}

// Validate checks the op against crossbar dimension n.
func (op ResetOp) Validate(n int) error {
	if op.Row < 0 || op.Row >= n {
		return fmt.Errorf("circuit: selected row %d out of range 0..%d", op.Row, n-1)
	}
	if len(op.Cols) == 0 {
		return fmt.Errorf("circuit: no selected columns")
	}
	seen := make(map[int]bool, len(op.Cols))
	for _, c := range op.Cols {
		if c < 0 || c >= n {
			return fmt.Errorf("circuit: selected column %d out of range 0..%d", c, n-1)
		}
		if seen[c] {
			return fmt.Errorf("circuit: duplicate selected column %d", c)
		}
		seen[c] = true
	}
	return nil
}

// Result reports the solved operating point of a RESET operation.
type Result struct {
	// Vd is the voltage drop across each fully-selected cell, in the order
	// of ResetOp.Cols. Larger is better (faster RESET).
	Vd []float64
	// MinVd is the worst (smallest) drop among the selected cells; it
	// governs the RESET latency of the whole operation.
	MinVd float64
	// Iterations is the number of nonlinear fixed-point iterations used.
	Iterations int
}

func finishResult(r *Result) {
	r.MinVd = math.Inf(1)
	for _, v := range r.Vd {
		if v < r.MinVd {
			r.MinVd = v
		}
	}
}

// MNA is the full modified-nodal-analysis crossbar solver.
type MNA struct {
	p Params
	// nonlinear iteration controls
	maxNonlinear int
	damping      float64
	cg           CGOptions
}

// NewMNA returns an MNA solver for the given parameters.
func NewMNA(p Params) (*MNA, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &MNA{
		p:            p,
		maxNonlinear: 18,
		damping:      0.5,
		cg:           CGOptions{Tol: 1e-9},
	}, nil
}

// node indices: wordline node (i,j) = i*N + j, bitline node = N² + i*N + j.
func (m *MNA) wlNode(i, j int) int { return i*m.p.N + j }
func (m *MNA) blNode(i, j int) int { return m.p.N*m.p.N + i*m.p.N + j }

// Solve computes the operating point of a RESET described by op over the
// crossbar content pat. Fully-selected cells are treated as LRS (the
// worst case: a RESET switches LRS→HRS, and a cell still in LRS draws the
// most current), matching the paper's conservative timing argument.
func (m *MNA) Solve(pat Pattern, op ResetOp) (*Result, error) {
	if err := op.Validate(m.p.N); err != nil {
		return nil, err
	}
	n := m.p.N
	nn := 2 * n * n
	target := make(map[int]bool, len(op.Cols))
	for _, c := range op.Cols {
		target[c] = true
	}

	// Rail potentials per line.
	vWLRail := make([]float64, n)
	vBLRail := make([]float64, n)
	for i := 0; i < n; i++ {
		vWLRail[i] = m.p.VBias
		vBLRail[i] = m.p.VBias
	}
	vWLRail[op.Row] = 0
	for _, c := range op.Cols {
		vBLRail[c] = m.p.VWrite
	}

	// Initial node voltages: each line at its rail.
	v := make([]float64, nn)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v[m.wlNode(i, j)] = vWLRail[i]
			v[m.blNode(i, j)] = vBLRail[j]
		}
	}

	gWire := 1 / math.Max(m.p.RWire, 1e-9)
	gIn := 1 / math.Max(m.p.RIn, 1e-9)
	gOut := 1 / math.Max(m.p.ROut, 1e-9)

	// Cell conductances, updated by the nonlinear loop. Fully-selected
	// cells use the sustained RESET target characteristics.
	g := make([]float64, n*n)
	isTarget := func(i, j int) bool { return i == op.Row && target[j] }
	conductance := func(i, j int, dv float64) float64 {
		if isTarget(i, j) {
			return m.p.TargetConductance(dv)
		}
		return m.p.CellConductance(dv, pat.LRS(i, j))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dv := v[m.blNode(i, j)] - v[m.wlNode(i, j)]
			g[i*n+j] = conductance(i, j, dv)
		}
	}

	var res Result
	for iter := 0; iter < m.maxNonlinear; iter++ {
		b := NewMatrixBuilder(nn)
		rhs := make([]float64, nn)
		for i := 0; i < n; i++ {
			// Wordline wire segments and driver (driver at column 0).
			for j := 0; j+1 < n; j++ {
				b.StampConductance(m.wlNode(i, j), m.wlNode(i, j+1), gWire)
			}
			b.Add(m.wlNode(i, 0), m.wlNode(i, 0), gIn)
			rhs[m.wlNode(i, 0)] += gIn * vWLRail[i]
		}
		for j := 0; j < n; j++ {
			// Bitline wire segments and driver (driver at row 0).
			for i := 0; i+1 < n; i++ {
				b.StampConductance(m.blNode(i, j), m.blNode(i+1, j), gWire)
			}
			b.Add(m.blNode(0, j), m.blNode(0, j), gOut)
			rhs[m.blNode(0, j)] += gOut * vBLRail[j]
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b.StampConductance(m.wlNode(i, j), m.blNode(i, j), g[i*n+j])
			}
		}
		mat := b.Compile()
		sol, err := mat.SolveCG(rhs, v, m.cg)
		if err != nil {
			return nil, fmt.Errorf("solving MNA system (iter %d): %w", iter, err)
		}
		v = sol

		// Update conductances with damping; track the largest relative move.
		maxRel := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dv := v[m.blNode(i, j)] - v[m.wlNode(i, j)]
				gNew := conductance(i, j, dv)
				gOld := g[i*n+j]
				gNext := gOld + m.damping*(gNew-gOld)
				if gOld > 0 {
					if rel := math.Abs(gNext-gOld) / gOld; rel > maxRel {
						maxRel = rel
					}
				}
				g[i*n+j] = gNext
			}
		}
		res.Iterations = iter + 1
		if maxRel < 1e-4 {
			break
		}
	}

	res.Vd = make([]float64, len(op.Cols))
	for k, c := range op.Cols {
		res.Vd[k] = v[m.blNode(op.Row, c)] - v[m.wlNode(op.Row, c)]
	}
	finishResult(&res)
	return &res, nil
}
