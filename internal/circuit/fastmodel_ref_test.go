package circuit

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// DebugResult extends Result with internal node voltages for diagnostics
// and tests.
type DebugResult struct {
	Result
	// VWL is the solved selected-wordline node voltage profile.
	VWL []float64
	// VBLTarget is the solved bitline voltage at the target row, per
	// selected column.
	VBLTarget []float64
}

// SolveDebug runs Solve and additionally exposes the solved line
// profiles.
func (f *FastModel) SolveDebug(op FastOp) (*DebugResult, error) {
	res, vWL, vBL, err := f.solve(op)
	if err != nil {
		return nil, err
	}
	return &DebugResult{Result: *res, VWL: vWL, VBLTarget: vBL}, nil
}

// referenceSolve is the reduced ladder model written the plain way: every
// iteration rebuilds each tridiagonal system in full and solves the
// wordline and then each selected bitline with SolveTridiagonal, one after
// the other. FastModel.solve interleaves the bitline ladders and skips
// work whose result is never read; it must agree with this bit for bit.
func referenceSolve(p Params, iterations int, op FastOp) (*Result, []float64, []float64) {
	n := p.N
	target := make(map[int]bool, len(op.Cols))
	for _, c := range op.Cols {
		target[c] = true
	}
	wlLRS := spreadLRS(n, op.WLLRS, func(j int) bool { return target[j] })
	blLRS := spreadLRS(n, op.BLLRS, func(i int) bool { return i == op.Row })

	gWire := 1 / math.Max(p.RWire, 1e-9)
	gIn := 1 / math.Max(p.RIn, 1e-9)
	gOut := 1 / math.Max(p.ROut, 1e-9)

	vWL := make([]float64, n)
	vBLAtTarget := make([]float64, len(op.Cols))
	vd := make([]float64, len(op.Cols))
	for k := range op.Cols {
		vBLAtTarget[k] = p.VWrite
		vd[k] = p.VWrite
	}
	sub := make([]float64, n)
	diag := make([]float64, n)
	sup := make([]float64, n)
	rhs := make([]float64, n)
	wire := func() {
		for j := 0; j < n; j++ {
			sub[j], diag[j], sup[j], rhs[j] = 0, 0, 0, 0
			if j > 0 {
				sub[j] = -gWire
				diag[j] += gWire
			}
			if j < n-1 {
				sup[j] = -gWire
				diag[j] += gWire
			}
		}
	}
	for iter := 0; iter < iterations; iter++ {
		wire()
		diag[0] += gIn
		colOf := make(map[int]int, len(op.Cols))
		for k, c := range op.Cols {
			colOf[c] = k
		}
		for j := 0; j < n; j++ {
			if k, ok := colOf[j]; ok {
				g := p.TargetConductance(vd[k])
				diag[j] += g
				rhs[j] += g * vBLAtTarget[k]
				continue
			}
			g := p.CellConductance(p.VBias-vWL[j], wlLRS[j])
			diag[j] += g
			rhs[j] += g * p.VBias
		}
		sol := SolveTridiagonal(sub, diag, sup, rhs)
		maxMove := 0.0
		for j := 0; j < n; j++ {
			nv := vWL[j] + 0.5*(sol[j]-vWL[j])
			if d := math.Abs(nv - vWL[j]); d > maxMove {
				maxMove = d
			}
			vWL[j] = nv
		}
		for k, c := range op.Cols {
			wire()
			diag[0] += gOut
			rhs[0] += gOut * p.VWrite
			vbPrev := vBLAtTarget[k]
			for i := 0; i < n; i++ {
				if i == op.Row {
					g := p.TargetConductance(vd[k])
					diag[i] += g
					rhs[i] += g * vWL[c]
					continue
				}
				g := p.CellConductance(vbPrev-p.VBias, blLRS[i])
				diag[i] += g
				rhs[i] += g * p.VBias
			}
			sol := SolveTridiagonal(sub, diag, sup, rhs)
			vb := vBLAtTarget[k] + 0.5*(sol[op.Row]-vBLAtTarget[k])
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
			return res, vWL, vBLAtTarget
		}
	}
	res := &Result{Vd: vd, Iterations: iterations}
	finishResult(res)
	return res, vWL, vBLAtTarget
}

// sameBits reports whether two slices hold bit-identical floats.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// referenceOps draws ops over the whole valid domain of an n×n crossbar
// with sel selected cells, edges included.
func referenceOps(n, sel int, rng *rand.Rand, count int) []FastOp {
	ops := make([]FastOp, 0, count)
	for len(ops) < count {
		base := rng.Intn(n - sel + 1)
		cols := make([]int, sel)
		for i := range cols {
			cols[i] = base + i
		}
		row := rng.Intn(n)
		switch len(ops) % 4 {
		case 0:
			row = 0
		case 1:
			row = n - 1
		}
		ops = append(ops, FastOp{Row: row, Cols: cols, WLLRS: rng.Intn(n - sel + 1), BLLRS: rng.Intn(n)})
	}
	return ops
}

// TestFastModelMatchesReference checks Solve and SolveDebug against the
// plain solver bit for bit across crossbar sizes, selected-cell counts,
// driver and wire resistances, rows and content levels.
func TestFastModelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		n, sel      int
		rWire, rDrv float64
	}{
		{1, 1, 2.5, 100},
		{2, 1, 2.5, 100},
		{16, 2, 2.5, 100},
		{32, 4, 10, 50},
		{64, 8, 2.5, 100},
		{128, 8, 0, 0},
		{512, 8, 2.5, 100},
	} {
		p := smallParams(c.n, c.sel)
		p.RWire, p.RIn, p.ROut = c.rWire, c.rDrv, c.rDrv
		f, err := NewFastModel(p)
		if err != nil {
			t.Fatal(err)
		}
		count := 24
		if c.n >= 512 {
			count = 4
		}
		for _, op := range referenceOps(c.n, c.sel, rng, count) {
			name := fmt.Sprintf("n=%d %+v", c.n, op)
			want, wantWL, wantBL := referenceSolve(p, f.iterations, op)
			got, err := f.SolveDebug(op)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sameBits(got.Vd, want.Vd) || math.Float64bits(got.MinVd) != math.Float64bits(want.MinVd) ||
				got.Iterations != want.Iterations {
				t.Fatalf("%s: got Vd %v in %d iterations, want %v in %d", name, got.Vd, got.Iterations, want.Vd, want.Iterations)
			}
			if !sameBits(got.VWL, wantWL) || !sameBits(got.VBLTarget, wantBL) {
				t.Fatalf("%s: solved line profiles differ from the reference", name)
			}
		}
	}
}

// TestFastModelConcurrentSolve runs one FastModel from several goroutines
// and compares every result with the serial one (run it with -race).
func TestFastModelConcurrentSolve(t *testing.T) {
	p := smallParams(64, 4)
	f, err := NewFastModel(p)
	if err != nil {
		t.Fatal(err)
	}
	ops := referenceOps(p.N, p.SelectedCells, rand.New(rand.NewSource(2)), 32)
	want := make([]*Result, len(ops))
	for i, op := range ops {
		if want[i], err = f.Solve(op); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 4
	got := make([][]*Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]*Result, len(ops))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine walks the ops from a different start so the
			// solves overlap in different combinations.
			for j := range ops {
				i := (j + w*len(ops)/workers) % len(ops)
				res, err := f.Solve(ops[i])
				if err != nil {
					t.Error(err)
					return
				}
				got[w][i] = res
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, res := range got[w] {
			if res == nil || !sameBits(res.Vd, want[i].Vd) || res.Iterations != want[i].Iterations {
				t.Fatalf("goroutine %d, op %+v: concurrent result differs from the serial one", w, ops[i])
			}
		}
	}
}
