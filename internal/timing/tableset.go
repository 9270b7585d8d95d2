package timing

import (
	_ "embed"
	"fmt"
	"math"
	"strconv"
	"strings"
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

// defaultTables is NewTableSet(circuit.DefaultParams()) as data: one
// labelled value a line in tableSetFields order, each number the hex of
// its IEEE-754 bits. Like the SPD ROM of Section 6.3, it ships the
// paper's tables with the simulator instead of computing them at start;
// TestTableSetGolden regenerates them and requires every bit to match.
//
//go:embed tableset_default.txt
var defaultTables string

var (
	defaultOnce sync.Once
	defaultSet  *TableSet
	defaultErr  error
)

// DefaultTableSet returns the table set for the paper's Table 1
// crossbar, decoded once per process from the embedded tables.
func DefaultTableSet() (*TableSet, error) {
	defaultOnce.Do(func() {
		defaultSet, defaultErr = decodeTableSet(defaultTables, circuit.DefaultParams().N)
	})
	return defaultSet, defaultErr
}

// tableSetFields lists every number of a table set with its label, in
// the order the text form holds them: the model's C and K, the worst
// case, then each table's entries by WL, BL and content bucket.
func tableSetFields(ts *TableSet) (labels []string, vals []*float64) {
	labels = []string{"Model.C", "Model.K", "WorstNs"}
	vals = []*float64{&ts.Model.C, &ts.Model.K, &ts.WorstNs}
	for _, tb := range []struct {
		name string
		t    *Table
	}{{"WL", ts.WL}, {"BL", ts.BL}, {"Half", ts.Half}} {
		for wb := range tb.t.LatNs {
			for bb := range tb.t.LatNs[wb] {
				for cb := range tb.t.LatNs[wb][bb] {
					labels = append(labels, fmt.Sprintf("%s[%d][%d][%d]", tb.name, wb, bb, cb))
					vals = append(vals, &tb.t.LatNs[wb][bb][cb])
				}
			}
		}
	}
	return labels, vals
}

// decodeTableSet parses defaultTables' form for an n×n crossbar. The
// model's clamps are the calibration constants and the tables' layout
// is NewTableSet's: n/Buckets cells a bucket, and content keyed on the
// wordline except in the BL table.
func decodeTableSet(text string, n int) (*TableSet, error) {
	ts := &TableSet{
		Model: Model{MinNs: MinLatencyNs, MaxNs: MaxLatencyNs},
		WL:    &Table{Granularity: n / Buckets, Content: WLContent},
		BL:    &Table{Granularity: n / Buckets, Content: BLContent},
		Half:  &Table{Granularity: n / Buckets, Content: WLContent},
	}
	labels, vals := tableSetFields(ts)
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if len(lines) != len(labels) {
		return nil, fmt.Errorf("timing: table set has %d lines, want %d", len(lines), len(labels))
	}
	for i, line := range lines {
		label, hex, _ := strings.Cut(line, " ")
		if label != labels[i] {
			return nil, fmt.Errorf("timing: table set line %d is %q, want label %s", i+1, line, labels[i])
		}
		bits, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("timing: table set line %d: %w", i+1, err)
		}
		*vals[i] = math.Float64frombits(bits)
	}
	return ts, nil
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
