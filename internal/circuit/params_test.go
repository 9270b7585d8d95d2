package circuit

import (
	"math"
	"testing"
)

func TestDefaultParamsMatchTable1(t *testing.T) {
	p := DefaultParams()
	if p.N != 512 {
		t.Errorf("N = %d, want 512", p.N)
	}
	if p.SelectedCells != 8 {
		t.Errorf("SelectedCells = %d, want 8", p.SelectedCells)
	}
	if p.RLRS != 10e3 || p.RHRS != 2e6 {
		t.Errorf("RLRS/RHRS = %v/%v, want 10k/2M", p.RLRS, p.RHRS)
	}
	if p.Nonlinearity != 200 {
		t.Errorf("Nonlinearity = %v, want 200", p.Nonlinearity)
	}
	if p.RIn != 100 || p.ROut != 100 || p.RWire != 2.5 {
		t.Errorf("RIn/ROut/RWire = %v/%v/%v, want 100/100/2.5", p.RIn, p.ROut, p.RWire)
	}
	if p.VWrite != 3.0 || p.VBias != 1.5 {
		t.Errorf("VWrite/VBias = %v/%v, want 3/1.5", p.VWrite, p.VBias)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	base := DefaultParams()
	cases := []struct {
		name string
		mod  func(*Params)
	}{
		{"zero N", func(p *Params) { p.N = 0 }},
		{"too many selected", func(p *Params) { p.SelectedCells = p.N + 1 }},
		{"zero selected", func(p *Params) { p.SelectedCells = 0 }},
		{"negative RLRS", func(p *Params) { p.RLRS = -1 }},
		{"HRS below LRS", func(p *Params) { p.RHRS = p.RLRS / 2 }},
		{"nonlinearity below 1", func(p *Params) { p.Nonlinearity = 0.5 }},
		{"negative wire", func(p *Params) { p.RWire = -1 }},
		{"zero VWrite", func(p *Params) { p.VWrite = 0 }},
		{"bias above write", func(p *Params) { p.VBias = p.VWrite + 1 }},
	}
	for _, c := range cases {
		p := base
		c.mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid params", c.name)
		}
	}
}

// cellCurrent is the current I(v) = v·CellConductance(v) through a cell,
// the selector I–V law the conductance linearizes.
func cellCurrent(p Params, v float64, lrs bool) float64 {
	return v * p.CellConductance(v, lrs)
}

func TestCellCurrentNonlinearity(t *testing.T) {
	p := DefaultParams()
	full := cellCurrent(p, p.VWrite, true)
	half := cellCurrent(p, p.VWrite/2, true)
	if ratio := full / half; math.Abs(ratio-p.Nonlinearity) > 1e-6*p.Nonlinearity {
		t.Fatalf("I(V)/I(V/2) = %v, want %v", ratio, p.Nonlinearity)
	}
}

func TestCellCurrentFullVoltage(t *testing.T) {
	p := DefaultParams()
	if got, want := cellCurrent(p, p.VWrite, true), p.VWrite/p.RLRS; math.Abs(got-want) > 1e-12 {
		t.Fatalf("LRS full-voltage current = %v, want %v", got, want)
	}
	if got, want := cellCurrent(p, p.VWrite, false), p.VWrite/p.RHRS; math.Abs(got-want) > 1e-15 {
		t.Fatalf("HRS full-voltage current = %v, want %v", got, want)
	}
}

func TestCellCurrentOddSymmetry(t *testing.T) {
	p := DefaultParams()
	for _, v := range []float64{0.3, 1.0, 2.4} {
		if got := cellCurrent(p, -v, true); math.Abs(got+cellCurrent(p, v, true)) > 1e-15 {
			t.Fatalf("current not odd at %v: %v", v, got)
		}
	}
}

func TestCellCurrentMonotone(t *testing.T) {
	// The current is monotone non-decreasing in |v| (the conductance is
	// not, because of the selector's current-limiting plateau).
	p := DefaultParams()
	prev := 0.0
	for v := 0.01; v <= p.VWrite; v += 0.01 {
		i := cellCurrent(p, v, true)
		if i < prev-1e-15 {
			t.Fatalf("current not monotone at %v: %v < %v", v, i, prev)
		}
		prev = i
	}
}

func TestCellCurrentContinuous(t *testing.T) {
	p := DefaultParams()
	for _, knot := range []float64{p.VWrite / 4, p.VWrite / 2} {
		lo := cellCurrent(p, knot-1e-9, true)
		hi := cellCurrent(p, knot+1e-9, true)
		if math.Abs(hi-lo) > 1e-6*math.Abs(hi) {
			t.Fatalf("current discontinuous at %v: %v vs %v", knot, lo, hi)
		}
	}
}

func TestCellConductanceFloor(t *testing.T) {
	p := DefaultParams()
	if g := p.CellConductance(0, true); g <= 0 {
		t.Fatalf("conductance at 0 V must stay positive, got %v", g)
	}
}

func TestLRSConductsMoreThanHRS(t *testing.T) {
	p := DefaultParams()
	for _, v := range []float64{0.5, 1.5, 3.0} {
		if p.CellConductance(v, true) <= p.CellConductance(v, false) {
			t.Fatalf("LRS should conduct more than HRS at %v V", v)
		}
	}
}
