// Package timing converts crossbar operating points into RESET latencies
// and builds the write-timing tables the LADDER memory controller consults
// (paper Sections 3.1 and 5).
//
// The physical law is t = C·e^(−k·|Vd|) (Yu & Wong, IEEE EDL 2010): RESET
// time grows exponentially as the voltage drop across the target cell
// shrinks. The paper quotes a 10× slowdown per 0.4 V of lost drive and a
// resulting tWR range of 29–658 ns (Table 2). We calibrate C and k so that
// the best and worst corners of the 8×8×8 table domain (WL bucket × BL
// bucket × C_lrs bucket, granularity 64 for a 512×512 mat) land exactly on
// that published range; latencies are clamped to it.
package timing

import (
	"errors"
	"fmt"
	"math"

	"ladder/internal/circuit"
)

// Table 2 tWR range in nanoseconds.
const (
	// MinLatencyNs is the fastest RESET the device supports (best corner).
	MinLatencyNs = 29
	// MaxLatencyNs is the pessimistic worst-case RESET latency the
	// baseline scheme applies to every write.
	MaxLatencyNs = 658
)

// Model maps a target-cell voltage drop to a RESET latency.
type Model struct {
	// C and K define t = C·e^(−K·Vd) nanoseconds.
	C, K float64
	// MinNs and MaxNs clamp the output range.
	MinNs, MaxNs float64
}

// Latency returns the RESET latency in nanoseconds for voltage drop vd.
func (m Model) Latency(vd float64) float64 {
	t := m.C * math.Exp(-m.K*math.Abs(vd))
	if t < m.MinNs {
		return m.MinNs
	}
	if t > m.MaxNs {
		return m.MaxNs
	}
	return t
}

// Calibrate fits a Model to the crossbar described by p: it evaluates the
// best and worst bucket corners of the table domain with the reduced
// circuit model and solves C and K so the first table entry maps to
// MinLatencyNs and the last to MaxLatencyNs — the published tWR window
// (Table 2). Fitting K to the array's own Vd range, rather than pinning
// the device law's exponent, keeps the full window usable for any
// crossbar size; for the paper's 512×512 mat the fitted K lands in the
// same regime as that law. The paper quotes a 10× latency increase per
// 0.4 V of lost drive (Govoreanu et al., IEDM 2011), so the device law's
// k = ln(10)/0.4 ≈ 5.76 /V.
func Calibrate(p circuit.Params) (Model, error) {
	if err := p.Validate(); err != nil {
		return Model{}, err
	}
	f, err := circuit.NewFastModel(p)
	if err != nil {
		return Model{}, err
	}
	gran := p.N / Buckets
	if gran == 0 {
		gran = 1
	}
	cols := func(high int) []int {
		cs := make([]int, p.SelectedCells)
		for i := range cs {
			cs[i] = high - p.SelectedCells + i
		}
		return cs
	}
	clampWL := func(c int) int {
		if c > p.N-p.SelectedCells {
			return p.N - p.SelectedCells
		}
		return c
	}
	best, err := f.Solve(circuit.FastOp{
		Row:   gran - 1,
		Cols:  cols(gran),
		WLLRS: clampWL(gran - 1),
		BLLRS: p.N - 1,
	})
	if err != nil {
		return Model{}, fmt.Errorf("calibrating best corner: %w", err)
	}
	worst, err := f.Solve(circuit.FastOp{
		Row:   p.N - 1,
		Cols:  cols(p.N),
		WLLRS: p.N - p.SelectedCells,
		BLLRS: p.N - 1,
	})
	if err != nil {
		return Model{}, fmt.Errorf("calibrating worst corner: %w", err)
	}
	vdMax, vdMin := best.MinVd, worst.MinVd
	if vdMax <= vdMin {
		return Model{}, errors.New("timing: degenerate Vd range; crossbar has no location/content dependence")
	}
	k := math.Log(float64(MaxLatencyNs)/float64(MinLatencyNs)) / (vdMax - vdMin)
	c := MinLatencyNs * math.Exp(k*vdMax)
	return Model{C: c, K: k, MinNs: MinLatencyNs, MaxNs: MaxLatencyNs}, nil
}
