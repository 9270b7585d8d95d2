package timing

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ladder/internal/circuit"
)

// NTable is a write-timing table with a configurable bucket count per
// dimension, used to study the cost of the paper's 8×8×8 reduction
// (Section 5: "the most fine-grained latency model ... is impractical";
// the paper reports the reduced granularity costs under 3%).
type NTable struct {
	// B is the bucket count per dimension; Granularity is cells/bucket.
	B           int
	Granularity int
	Content     ContentDim
	// LatNs is B×B×B in row-major (wl, bl, content) order.
	LatNs []float64
}

// index computes the flat offset of a bucket triple.
func (t *NTable) index(wb, bb, cb int) int { return (wb*t.B+bb)*t.B + cb }

// bucketOf clamps and buckets a raw index.
func (t *NTable) bucketOf(idx int) int {
	if idx < 0 {
		idx = 0
	}
	b := idx / t.Granularity
	if b >= t.B {
		b = t.B - 1
	}
	return b
}

// Lookup returns the latency for raw wordline/bitline/content indices.
func (t *NTable) Lookup(wl, bl, clrs int) float64 {
	return t.LatNs[t.index(t.bucketOf(wl), t.bucketOf(bl), t.bucketOf(clrs))]
}

// StorageBytes returns the on-chip cost at one byte per entry (the SPD
// encoding): the paper's 8×8×8 table needs 512 B; a 32×32×32 table would
// need 32 KB — the impracticality that motivates the reduction.
func (t *NTable) StorageBytes() int { return t.B * t.B * t.B }

// GenerateN builds a timing table with `buckets` buckets per dimension,
// sampling each bucket's worst corner (maximum wordline index, maximum
// bitline index and maximum content count within the bucket), so a lookup
// is always sufficient for any operating point inside the bucket. The
// cells are independent circuit solves; they run on GOMAXPROCS workers,
// each writing its result by index, so the table does not depend on the
// worker count.
func GenerateN(p circuit.Params, m Model, buckets int, opts TableOptions) (*NTable, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if buckets <= 0 || p.N%buckets != 0 {
		return nil, fmt.Errorf("timing: %d buckets must divide crossbar size %d", buckets, p.N)
	}
	sel := p.SelectedCells
	if opts.SelectedCells != 0 {
		sel = opts.SelectedCells
	}
	gran := p.N / buckets
	if sel <= 0 || sel > p.N {
		return nil, fmt.Errorf("timing: selected cells %d out of range 1..%d", sel, p.N)
	}
	if opts.Content != WLContent && opts.Content != BLContent {
		return nil, fmt.Errorf("timing: unknown content dimension %d", opts.Content)
	}
	f, err := circuit.NewFastModel(p)
	if err != nil {
		return nil, err
	}
	t := &NTable{B: buckets, Granularity: gran, Content: opts.Content, LatNs: make([]float64, buckets*buckets*buckets)}
	// op returns the circuit operation of a bucket triple.
	op := func(wb, bb, cb int) circuit.FastOp {
		// The selected byte's bitlines end at the bucket's top column;
		// with buckets finer than a byte the span reaches back across
		// neighboring buckets.
		colHigh := max((bb+1)*gran, sel)
		cols := make([]int, sel)
		for i := range cols {
			cols[i] = colHigh - sel + i
		}
		content := (cb+1)*gran - 1
		if opts.Content == WLContent {
			return circuit.FastOp{Row: (wb+1)*gran - 1, Cols: cols, WLLRS: min(content, p.N-sel), BLLRS: p.N - 1}
		}
		return circuit.FastOp{Row: (wb+1)*gran - 1, Cols: cols, WLLRS: p.N - sel, BLLRS: min(content, p.N-1)}
	}
	errs := make([]error, len(t.LatNs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(t.LatNs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= len(t.LatNs) {
					return
				}
				wb, bb, cb := idx/(buckets*buckets), idx/buckets%buckets, idx%buckets
				res, err := f.Solve(op(wb, bb, cb))
				if err != nil {
					errs[idx] = fmt.Errorf("generating bucket (%d,%d,%d): %w", wb, bb, cb, err)
					continue
				}
				t.LatNs[idx] = m.Latency(res.MinVd)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// GranularityCost compares a coarse table against a finer reference over
// every fine-table operating point: the mean and maximum latency
// inflation the coarse bucketing adds (coarse lookups are always ≥ the
// fine ones by construction). This quantifies Section 5's claim that the
// 8×8×8 reduction costs little.
func GranularityCost(coarse, fine *NTable) (meanInflation, maxInflation float64, err error) {
	if fine.B%coarse.B != 0 {
		return 0, 0, fmt.Errorf("timing: fine buckets %d must be a multiple of coarse %d", fine.B, coarse.B)
	}
	var sum float64
	var n int
	for wb := 0; wb < fine.B; wb++ {
		for bb := 0; bb < fine.B; bb++ {
			for cb := 0; cb < fine.B; cb++ {
				f := fine.LatNs[fine.index(wb, bb, cb)]
				c := coarse.Lookup((wb+1)*fine.Granularity-1, (bb+1)*fine.Granularity-1, (cb+1)*fine.Granularity-1)
				if f <= 0 {
					continue
				}
				infl := c/f - 1
				if infl < 0 {
					infl = 0
				}
				sum += infl
				if infl > maxInflation {
					maxInflation = infl
				}
				n++
			}
		}
	}
	if n > 0 {
		meanInflation = sum / float64(n)
	}
	return meanInflation, maxInflation, nil
}
