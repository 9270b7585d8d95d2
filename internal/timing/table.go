package timing

import (
	"fmt"

	"ladder/internal/circuit"
)

// Buckets is the number of buckets per table dimension. The paper reduces
// the full 512×512×512 space to 8×8×8 (granularity 64) after observing
// that finer granularity changes performance by under 3%.
const Buckets = 8

// ContentDim selects which crossbar dimension the table's content axis
// tracks.
type ContentDim int

const (
	// WLContent keys the content axis on the LRS population of the
	// selected wordline (LADDER's scheme); bitline content is assumed
	// worst-case.
	WLContent ContentDim = iota
	// BLContent keys the content axis on the LRS population of the
	// selected bitlines (the BLP baseline); wordline content is assumed
	// worst-case.
	BLContent
)

// TableOptions configures table generation.
type TableOptions struct {
	// SelectedCells overrides Params.SelectedCells when non-zero (the
	// Split-reset baseline writes 4 cells per phase instead of 8).
	SelectedCells int
	// Content selects the content axis (default WLContent).
	Content ContentDim
}

// Table is a write-timing table: RESET latency in nanoseconds indexed by
// wordline-location bucket, bitline-location bucket and content bucket.
// It is the lookup structure the LADDER control logic holds on chip
// (512 B as 8 sub-tables of 8×8 entries).
type Table struct {
	// Granularity is the number of cells covered by one bucket.
	Granularity int
	// Content records which dimension the content axis tracks.
	Content ContentDim
	// LatNs[wl][bl][content] is the RESET latency in nanoseconds.
	LatNs [Buckets][Buckets][Buckets]float64
}

// BucketOf clamps a raw wordline/bitline/content index into the table
// domain and returns its bucket (0..Buckets-1) — the cell coordinate a
// Lookup at that index reads. The observability layer uses it to
// attribute each RESET to its timing-table cell (docs/METRICS.md).
func (t *Table) BucketOf(idx int) int { return t.bucketOf(idx) }

// bucketOf clamps and buckets a raw index.
func (t *Table) bucketOf(idx int) int {
	if idx < 0 {
		idx = 0
	}
	b := idx / t.Granularity
	if b >= Buckets {
		b = Buckets - 1
	}
	return b
}

// Lookup returns the latency for a write at raw wordline index wl, raw
// bitline index bl, with raw content count clrs (LRS cells on the keyed
// dimension). Indices are clamped into the table domain.
func (t *Table) Lookup(wl, bl, clrs int) float64 {
	return t.LatNs[t.bucketOf(wl)][t.bucketOf(bl)][t.bucketOf(clrs)]
}

// WorstCase returns the pessimistic fixed latency (the baseline scheme's
// tWR): the worst entry in the table.
func (t *Table) WorstCase() float64 {
	w := 0.0
	for i := range t.LatNs {
		for j := range t.LatNs[i] {
			for k := range t.LatNs[i][j] {
				if t.LatNs[i][j][k] > w {
					w = t.LatNs[i][j][k]
				}
			}
		}
	}
	return w
}

// EscalateContent returns the latency at the given location with the
// content axis raised `steps` buckets above the bucket of clrs — the
// program-and-verify retry ladder: each failed RESET reissues at the
// next content bucket up, saturating at the worst bucket. A negative
// clrs (a scheme without content knowledge) already programs worst-case
// content, so escalation starts — and stays — at the worst bucket.
func (t *Table) EscalateContent(wl, bl, clrs, steps int) float64 {
	cb := Buckets - 1
	if clrs >= 0 {
		cb = t.bucketOf(clrs) + steps
		if cb > Buckets-1 {
			cb = Buckets - 1
		}
	}
	return t.LatNs[t.bucketOf(wl)][t.bucketOf(bl)][cb]
}

// LocationOnly returns the latency assuming worst-case content at the
// given location (the location-aware scheme of Figure 2).
func (t *Table) LocationOnly(wl, bl int) float64 {
	return t.LatNs[t.bucketOf(wl)][t.bucketOf(bl)][Buckets-1]
}

// ShrinkRange compresses the table's content-induced latency spread by
// the given factor (Section 7's process-variability ablation: devices
// with tighter RESET characteristics show less content-dependent latency
// variation). At every location the worst-content entry — the guardband
// the pessimistic baseline also uses — is preserved, and the faster
// content levels move toward it.
func (t *Table) ShrinkRange(factor float64) *Table {
	if factor <= 0 {
		factor = 1
	}
	out := &Table{Granularity: t.Granularity, Content: t.Content}
	for i := range t.LatNs {
		for j := range t.LatNs[i] {
			worst := t.LatNs[i][j][Buckets-1]
			for k := range t.LatNs[i][j] {
				out.LatNs[i][j][k] = worst - (worst-t.LatNs[i][j][k])/factor
			}
		}
	}
	return out
}

// Generate builds the paper's 8×8×8 timing table: GenerateN at Buckets
// buckets per dimension, with the selected cells confined to one bucket's
// bitlines.
func Generate(p circuit.Params, m Model, opts TableOptions) (*Table, error) {
	sel := p.SelectedCells
	if opts.SelectedCells != 0 {
		sel = opts.SelectedCells
	}
	if sel <= 0 || sel > p.N/Buckets {
		return nil, fmt.Errorf("timing: selected cells %d out of range 1..%d", sel, p.N/Buckets)
	}
	nt, err := GenerateN(p, m, Buckets, opts)
	if err != nil {
		return nil, err
	}
	tbl := &Table{Granularity: nt.Granularity, Content: nt.Content}
	for wb := range tbl.LatNs {
		for bb := range tbl.LatNs[wb] {
			for cb := range tbl.LatNs[wb][bb] {
				tbl.LatNs[wb][bb][cb] = nt.LatNs[nt.index(wb, bb, cb)]
			}
		}
	}
	return tbl, nil
}
