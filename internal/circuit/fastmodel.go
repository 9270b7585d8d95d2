package circuit

import (
	"fmt"
	"math"
)

// FastOp describes a RESET to the reduced model in terms of the aggregates
// the LADDER latency model is keyed on, rather than a full per-cell
// pattern.
type FastOp struct {
	// Row is the selected wordline index (0 = nearest the bitline driver).
	Row int
	// Cols are the selected bitline indices (0 = nearest the wordline
	// driver).
	Cols []int
	// WLLRS is the number of half-selected cells in LRS on the selected
	// wordline (the C_lrs content term, excluding the targets).
	WLLRS int
	// BLLRS is the number of half-selected cells in LRS on each selected
	// bitline. The paper assumes the worst case (all LRS) because bitline
	// content is not tracked; callers model that with N-1.
	BLLRS int
}

// FastModel solves the selected wordline and the selected bitlines as 1-D
// resistive ladders with half-selected cells lumped as shunt loads to the
// half-bias rail. Unselected lines are approximated as ideal rails at
// VBias, which is accurate because they are driven and carry little
// current. The wordline and bitline solves are coupled through the target
// cells by a damped fixed-point loop.
//
// A FastModel is immutable after construction, so one may serve Solve
// calls from many goroutines at once.
type FastModel struct {
	p          Params
	iterations int
	// gWire, gIn and gOut are the wire-segment and driver conductances.
	gWire, gIn, gOut float64
	// wire is the diagonal every ladder system starts from: the
	// conductances of the wire segments to each node's neighbours.
	wire []float64
}

// NewFastModel returns a reduced-model solver for the given parameters.
func NewFastModel(p Params) (*FastModel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f := &FastModel{
		p:          p,
		iterations: 40,
		gWire:      1 / math.Max(p.RWire, 1e-9),
		gIn:        1 / math.Max(p.RIn, 1e-9),
		gOut:       1 / math.Max(p.ROut, 1e-9),
		wire:       make([]float64, p.N),
	}
	for j := range f.wire {
		if j > 0 {
			f.wire[j] += f.gWire
		}
		if j < p.N-1 {
			f.wire[j] += f.gWire
		}
	}
	return f, nil
}

// spreadLRS marks `count` of the positions 0..n-1 not skipped as LRS,
// spread evenly, mirroring WordlinePattern's placement so that the fast
// model and MNA agree on geometry.
func spreadLRS(n, count int, skip func(int) bool) []bool {
	lrs := make([]bool, n)
	avail := make([]int, 0, n)
	for j := 0; j < n; j++ {
		if !skip(j) {
			avail = append(avail, j)
		}
	}
	if count > len(avail) {
		count = len(avail)
	}
	for k := 0; k < count; k++ {
		lrs[avail[k*len(avail)/count]] = true
	}
	return lrs
}

// Solve computes the per-target voltage drops for the reduced model.
func (f *FastModel) Solve(op FastOp) (*Result, error) {
	res, _, _, err := f.solve(op)
	return res, err
}

// solve runs the damped fixed-point loop. Each ladder is a tridiagonal
// system solved by the Thomas algorithm, with the constant off-diagonal
// -gWire and the same floating-point operations in the same order as
// SolveTridiagonal, so the results are bit-identical to building every
// system in full and solving it with that test reference (the reference
// test does exactly that). Two things make it cheaper: the selected
// bitlines are independent given last iteration's state, so their
// ladders are eliminated together row by row (their division chains
// overlap instead of running one after another), and a bitline is read
// only at the target row, so its back substitution stops there.
func (f *FastModel) solve(op FastOp) (*Result, []float64, []float64, error) {
	p := &f.p
	n := p.N
	if op.Row < 0 || op.Row >= n {
		return nil, nil, nil, fmt.Errorf("circuit: selected row %d out of range 0..%d", op.Row, n-1)
	}
	if len(op.Cols) == 0 {
		return nil, nil, nil, fmt.Errorf("circuit: no selected columns")
	}
	for _, c := range op.Cols {
		if c < 0 || c >= n {
			return nil, nil, nil, fmt.Errorf("circuit: selected column %d out of range 0..%d", c, n-1)
		}
	}
	if op.WLLRS < 0 || op.WLLRS > n-len(op.Cols) {
		return nil, nil, nil, fmt.Errorf("circuit: WLLRS %d out of range 0..%d", op.WLLRS, n-len(op.Cols))
	}
	if op.BLLRS < 0 || op.BLLRS > n-1 {
		return nil, nil, nil, fmt.Errorf("circuit: BLLRS %d out of range 0..%d", op.BLLRS, n-1)
	}

	nc := len(op.Cols)
	// colOf is the target index of each wordline node, -1 for
	// half-selected cells; a repeated column maps to its last index.
	colOf := make([]int, n)
	for j := range colOf {
		colOf[j] = -1
	}
	for k, c := range op.Cols {
		colOf[c] = k
	}
	wlLRS := spreadLRS(n, op.WLLRS, func(j int) bool { return colOf[j] >= 0 })
	blLRS := spreadLRS(n, op.BLLRS, func(i int) bool { return i == op.Row })

	// State: wordline node voltages, per-target bitline voltage at the
	// target row, and per-target drop.
	vWL := make([]float64, n)
	vBLAtTarget := make([]float64, nc)
	vd := make([]float64, nc)
	for k := range op.Cols {
		vBLAtTarget[k] = p.VWrite
		vd[k] = p.VWrite
	}

	// Thomas scratch: the wordline's eliminated diagonal and right-hand
	// side, the same for all bitlines interleaved (row i of bitline k at
	// i*nc+k), and per-target shunts: the target conductance and, along
	// the bitlines, the half-selected LRS and HRS conductances with their
	// right-hand-side terms.
	wd, wr := make([]float64, n), make([]float64, n)
	bd, br := make([]float64, n*nc), make([]float64, n*nc)
	shunt := make([]float64, 6*nc)
	gT, bT := shunt[:nc], shunt[nc:2*nc]
	gLRS, bLRS := shunt[2*nc:3*nc], shunt[3*nc:4*nc]
	gHRS, bHRS := shunt[4*nc:5*nc], shunt[5*nc:]
	s := -f.gWire

	for iter := 0; iter < f.iterations; iter++ {
		for k := range op.Cols {
			gT[k] = p.TargetConductance(vd[k])
		}

		// --- Selected wordline ladder (driver to 0 V at node 0). ---
		for j := 0; j < n; j++ {
			var g, b float64
			if k := colOf[j]; k >= 0 {
				// Target cell: shunt to the bitline voltage seen last
				// iteration, linearized at the current drop.
				g = gT[k]
				b = g * vBLAtTarget[k]
			} else {
				// Half-selected cell: shunt to the VBias rail.
				g = p.CellConductance(p.VBias-vWL[j], wlLRS[j])
				b = g * p.VBias
			}
			d := f.wire[j]
			if j == 0 {
				d += f.gIn // to 0 V rail; rhs term is zero
			}
			d += g
			if j > 0 {
				w := s / wd[j-1]
				d -= w * s
				b -= w * wr[j-1]
			}
			wd[j], wr[j] = d, b
		}
		backSubstitute(wd, wr, 1, 0, s)
		maxMove := 0.0
		for j := 0; j < n; j++ {
			nv := vWL[j] + 0.5*(wr[j]-vWL[j])
			if d := math.Abs(nv - vWL[j]); d > maxMove {
				maxMove = d
			}
			vWL[j] = nv
		}

		// --- The selected bitline ladders (driver to VWrite at node 0). ---
		// Half-selected cells along a bitline discharge toward the VBias
		// rail of their (unselected) wordlines, linearized at last
		// iteration's target-row voltage, so each bitline has one LRS and
		// one HRS shunt.
		for k, c := range op.Cols {
			vbPrev := vBLAtTarget[k]
			gLRS[k] = p.CellConductance(vbPrev-p.VBias, true)
			gHRS[k] = p.CellConductance(vbPrev-p.VBias, false)
			bLRS[k] = gLRS[k] * p.VBias
			bHRS[k] = gHRS[k] * p.VBias
			bT[k] = gT[k] * vWL[c]
		}
		for i := 0; i < n; i++ {
			g, b := gHRS, bHRS
			if i == op.Row {
				g, b = gT, bT
			} else if blLRS[i] {
				g, b = gLRS, bLRS
			}
			row := i * nc
			if i == 0 {
				for k := 0; k < nc; k++ {
					bd[k] = f.wire[0] + f.gOut + g[k]
					br[k] = f.gOut*p.VWrite + b[k]
				}
				continue
			}
			for k := 0; k < nc; k++ {
				w := s / bd[row-nc+k]
				bd[row+k] = f.wire[i] + g[k] - w*s
				br[row+k] = b[k] - w*br[row-nc+k]
			}
		}
		backSubstitute(bd, br, nc, op.Row, s)
		for k, c := range op.Cols {
			vb := vBLAtTarget[k] + 0.5*(br[op.Row*nc+k]-vBLAtTarget[k])
			if d := math.Abs(vb - vBLAtTarget[k]); d > maxMove {
				maxMove = d
			}
			vBLAtTarget[k] = vb
			nvd := vb - vWL[c]
			if nvd < 0 {
				nvd = 0
			}
			vd[k] = nvd
		}
		if maxMove < 1e-7*p.VWrite && iter > 2 {
			res := &Result{Vd: vd, Iterations: iter + 1}
			finishResult(res)
			return res, vWL, vBLAtTarget, nil
		}
	}
	res := &Result{Vd: vd, Iterations: f.iterations}
	finishResult(res)
	return res, vWL, vBLAtTarget, nil
}

// backSubstitute finishes the Thomas solves of `ladders` interleaved
// ladders (node i of ladder k at i*ladders+k) with constant off-diagonal
// s, whose forward elimination left diagonal d and right-hand side r. It
// solves nodes n-1 down to lo and leaves their voltages in r.
func backSubstitute(d, r []float64, ladders, lo int, s float64) {
	last := len(d) - ladders
	for k := 0; k < ladders; k++ {
		r[last+k] /= d[last+k]
	}
	for i := last - ladders; i >= lo*ladders; i -= ladders {
		for k := i; k < i+ladders; k++ {
			r[k] = (r[k] - s*r[k+ladders]) / d[k]
		}
	}
}
