package timing

import (
	"sync"

	"ladder/internal/circuit"
)

// TableSet bundles the timing tables every studied scheme needs, all
// generated from one calibrated model so cross-scheme comparisons are
// apples-to-apples (the paper applies the same circuit parameters to
// Split-reset and BLP, Section 6.1).
type TableSet struct {
	// Model is the calibrated Vd→latency mapping.
	Model Model
	// WL is LADDER's table: content axis = wordline LRS count.
	WL *Table
	// BL is the BLP baseline's table: content axis = bitline LRS count.
	BL *Table
	// Half is the Split-reset per-phase table: 4 selected cells, worst
	// content on both dimensions folded in via the WL content axis.
	Half *Table
	// WorstNs is the pessimistic fixed tWR used by the baseline scheme.
	WorstNs float64
}

// NewTableSet calibrates and generates all tables for the given crossbar.
func NewTableSet(p circuit.Params) (*TableSet, error) {
	m, err := Calibrate(p)
	if err != nil {
		return nil, err
	}
	wl, err := Generate(p, m, TableOptions{Content: WLContent})
	if err != nil {
		return nil, err
	}
	bl, err := Generate(p, m, TableOptions{Content: BLContent})
	if err != nil {
		return nil, err
	}
	half, err := Generate(p, m, TableOptions{Content: WLContent, SelectedCells: 4})
	if err != nil {
		return nil, err
	}
	return &TableSet{Model: m, WL: wl, BL: bl, Half: half, WorstNs: wl.WorstCase()}, nil
}

var (
	defaultOnce sync.Once
	defaultSet  *TableSet
	defaultErr  error
)

// DefaultTableSet returns the table set for the paper's Table 1 crossbar,
// generated once per process.
func DefaultTableSet() (*TableSet, error) {
	defaultOnce.Do(func() {
		defaultSet, defaultErr = NewTableSet(circuit.DefaultParams())
	})
	return defaultSet, defaultErr
}

// ContentCurve returns RESET latency as a function of wordline LRS count
// for a cell at the given location — the data behind Figure 4b. The curve
// has one point per content bucket.
func (ts *TableSet) ContentCurve(wl, bl int) []float64 {
	out := make([]float64, Buckets)
	for cb := 0; cb < Buckets; cb++ {
		out[cb] = ts.WL.LatNs[ts.WL.bucketOf(wl)][ts.WL.bucketOf(bl)][cb]
	}
	return out
}

// Surface returns the 8×8 latency surface over (WL bucket, BL bucket) at
// a fixed content bucket — the data behind Figure 11 (content bucket 0 for
// the all-'0's pattern, Buckets-1 for all-'1's).
func (ts *TableSet) Surface(contentBucket int) [Buckets][Buckets]float64 {
	if contentBucket < 0 {
		contentBucket = 0
	}
	if contentBucket >= Buckets {
		contentBucket = Buckets - 1
	}
	var s [Buckets][Buckets]float64
	for wb := 0; wb < Buckets; wb++ {
		for bb := 0; bb < Buckets; bb++ {
			s[wb][bb] = ts.WL.LatNs[wb][bb][contentBucket]
		}
	}
	return s
}
