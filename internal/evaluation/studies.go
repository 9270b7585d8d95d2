package evaluation

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"ladder"
	"ladder/internal/core"
	"ladder/internal/remap"
	"ladder/internal/reram"
	"ladder/internal/sim"
)

// A study is one of the paper's sensitivity studies: every workload runs
// under each variant (a cell whose Workload is left empty) on one
// sim.RunCells call, and reduce turns one workload's results, in variant
// order, into its values in series order.
type study struct {
	title string
	// workloads replaces the session's workload list when set.
	workloads []string
	series    []string
	variants  []sim.Cell
	reduce    func(r []*ladder.Result) []float64
}

// run is the study as an experiment: one table of its rows over the
// session's workloads (or its own), closed by their AVG row.
func (st study) run(s *Session) ([]Table, error) {
	opts := s.Opts
	if st.workloads != nil {
		opts = s.on(st.workloads)
	}
	rows, err := st.rows(s.Ctx, opts)
	return one(st.title, rows, err, st.series...)
}

// rows runs the study over opts' workloads, one row per workload.
func (st study) rows(ctx context.Context, opts ladder.Options) ([]ladder.Row, error) {
	ws := workloads(opts)
	cells := make([]sim.Cell, 0, len(ws)*len(st.variants))
	for _, w := range ws {
		for _, v := range st.variants {
			v.Workload = w
			cells = append(cells, v)
		}
	}
	res, err := sim.RunCells(ctx, opts, cells)
	if err != nil {
		return nil, err
	}
	n := len(st.variants)
	out := make([]ladder.Row, len(ws))
	for i, w := range ws {
		out[i] = row(w, st.series, st.reduce(res[i*n:(i+1)*n])...)
	}
	return out, nil
}

// workloads is opts' workload list, all sixteen when it names none.
func workloads(opts ladder.Options) []string {
	if len(opts.Workloads) > 0 {
		return opts.Workloads
	}
	return ladder.Workloads()
}

// each reduces every variant's result to one value.
func each(metric func(*ladder.Result) float64) func([]*ladder.Result) []float64 {
	return func(r []*ladder.Result) []float64 {
		out := make([]float64, len(r))
		for i, res := range r {
			out[i] = metric(res)
		}
		return out
	}
}

// remapStats is a run's decoder accounting, zero when the run built no
// decoder (line-mode VWL, or no leveling, faults or retirement).
func remapStats(r *ladder.Result) remap.Stats {
	if r.Remap == nil {
		return remap.Stats{}
	}
	return *r.Remap
}

// unleveled is a control run's edit: no wear leveling and no proactive
// retirement, whatever Base sets.
func unleveled(c *ladder.Config) { c.WearLeveling, c.ProactiveWearLimit = false, 0 }

// ablation is Section 7's process-variation study: the fraction of a
// scheme's speedup over the baseline retained when the timing tables'
// dynamic range shrinks by factor (the paper: 2× retains about 85%). The
// full-range runs set ShrinkRange 1, whatever Base sets.
func ablation(scheme string, factor float64) study {
	full := func(c *ladder.Config) { c.ShrinkRange = 1 }
	shrunk := func(c *ladder.Config) { c.ShrinkRange = factor }
	return study{
		title:  fmt.Sprintf("Section 7 — benefit retained with %gx shrunk latency range (paper ≈85%%)", factor),
		series: []string{"gain-full", "gain-shrunk", "retained"},
		variants: []sim.Cell{{Scheme: ladder.SchemeBaseline, Edit: full}, {Scheme: scheme, Edit: full},
			{Scheme: ladder.SchemeBaseline, Edit: shrunk}, {Scheme: scheme, Edit: shrunk}},
		reduce: func(r []*ladder.Result) []float64 {
			gainFull := r[1].WeightedSpeedup(r[0]) - 1
			gainShr := r[3].WeightedSpeedup(r[2]) - 1
			retained := 0.0
			if gainFull > 0 {
				retained = gainShr / gainFull
			}
			return []float64{gainFull, gainShr, retained}
		},
	}
}

// wear is Section 6.4's performance check: the IPC of a scheme under
// segment VWL relative to the same scheme unleveled, and the leveled
// run's gap moves.
func wear(scheme string) study {
	return study{
		title:  "Section 6.4 — IPC with VWL enabled relative to without (paper ≈99%)",
		series: []string{"ipc-ratio", "gap-moves"},
		variants: []sim.Cell{{Scheme: scheme, Edit: unleveled},
			{Scheme: scheme, Edit: func(c *ladder.Config) { c.WearLeveling = true }}},
		reduce: func(r []*ladder.Result) []float64 {
			ratio := 0.0
			if r[0].AvgIPC() > 0 {
				ratio = r[1].AvgIPC() / r[0].AvgIPC()
			}
			return []float64{ratio, float64(remapStats(r[1]).GapMoves)}
		},
	}
}

// vwlmode contrasts segment- and line-based vertical wear leveling under
// a LADDER scheme (Section 6.4's locality argument): line-granularity
// scatter breaks the page→metadata-line association, so metadata reads
// per data write rise and IPC falls.
func vwlmode(scheme string) study {
	level := func(mode string) sim.Cell {
		return sim.Cell{Scheme: scheme, Edit: func(c *ladder.Config) { c.WearLeveling, c.VWLMode = true, mode }}
	}
	metaPerWrite := func(r *ladder.Result) float64 {
		if r.Stats.DataWrites == 0 {
			return 0
		}
		return float64(r.Stats.MetaReads) / float64(r.Stats.DataWrites)
	}
	return study{
		title:    "Section 6.4 — segment vs line VWL (metadata reads per data write, IPC)",
		series:   []string{"segment-metareads", "line-metareads", "segment-ipc", "line-ipc"},
		variants: []sim.Cell{level("segment"), level("line")},
		reduce: func(r []*ladder.Result) []float64 {
			return []float64{metaPerWrite(r[0]), metaPerWrite(r[1]), r[0].AvgIPC(), r[1].AvgIPC()}
		},
	}
}

// crash is Section 7's crash-consistency scenario: a power failure
// halfway through the run loses cached LRS-metadata, the lazy
// conservative correction overwrites the region with maximum values, and
// execution resumes. Reported: average write service before and after
// the crash, and how conservative the corrected counters still are.
func crash(scheme string) study {
	return study{
		title:  "Section 7 — crash recovery with lazy conservative correction",
		series: []string{"pre-service-ns", "post-service-ns", "post-counter-gap"},
		variants: []sim.Cell{{Scheme: scheme, Edit: func(c *ladder.Config) {
			c.CrashAtInstr = c.InstrPerCore / 2
			if c.CrashAtInstr == 0 {
				c.CrashAtInstr = 100_000
			}
		}}},
		reduce: func(r []*ladder.Result) []float64 {
			pre, post := r[0].PreCrashStats, r[0].PostCrashStats
			if pre == nil || post == nil {
				return make([]float64, 3)
			}
			return []float64{pre.AvgWriteServiceNs(), post.AvgWriteServiceNs(), post.AvgCounterDiff()}
		},
	}
}

// cachesize is Section 6.3's metadata-cache ablation ("marginal system
// performance gain when increasing cache size (<2%)"): IPC at each
// LRS-metadata cache size relative to the default 64 KB cache.
func cachesize(scheme string, sizesKB ...int) study {
	variants := []sim.Cell{{Scheme: scheme}}
	for _, kb := range sizesKB {
		variants = append(variants, sim.Cell{Scheme: scheme, Edit: func(c *ladder.Config) {
			c.MetaCache = core.MetaCacheConfig{SizeBytes: kb << 10, Ways: 4, SpillSize: 16}
		}})
	}
	return study{
		title:     "Section 6.3 — metadata cache size ablation (IPC vs default 64KB; paper <2% gain)",
		workloads: subset,
		series:    labels("%dKB", sizesKB),
		variants:  variants,
		reduce: func(r []*ladder.Result) []float64 {
			out := make([]float64, len(sizesKB))
			if base := r[0].AvgIPC(); base > 0 {
				for i := range out {
					out[i] = r[i+1].AvgIPC() / base
				}
			}
			return out
		},
	}
}

// lowrows ablates LADDER-Hybrid's precision control register: how many
// driver-near rows use 1-bit counters (0 degenerates to LADDER-Est).
// Reported: average write service time.
func lowrows(rows ...int) study {
	variants := make([]sim.Cell, len(rows))
	for i, n := range rows {
		variants[i] = sim.Cell{Scheme: ladder.SchemeHybrid, Edit: func(c *ladder.Config) {
			c.HybridLowRows = n
			if n == 0 {
				c.HybridLowRows = -1
			}
		}}
	}
	return study{
		title:     "Section 4.2 — Hybrid precision-register ablation (avg write service ns)",
		workloads: subset,
		series:    labels("rows=%d svc", rows),
		variants:  variants,
		reduce:    each(func(r *ladder.Result) float64 { return r.Stats.AvgWriteServiceNs() }),
	}
}

// reliability is the write-fault study: program-and-verify retries per
// 1000 data writes for each scheme at each base fault rate (same fault
// seed). It exposes the stale-metadata margin effect: LADDER-Est's
// conservative partial-counter bounds program surplus latency margin,
// whose over-RESET stress draws more verify failures than LADDER-Basic's
// exact counters (see docs/FAULTS.md).
func reliability(schemes []string, rates []float64) study {
	st := study{
		title:     "Reliability — program-and-verify retries per 1000 data writes (stale-margin effect; see docs/FAULTS.md)",
		workloads: subset,
		reduce: each(func(r *ladder.Result) float64 {
			if r.Faults == nil || r.Stats.DataWrites == 0 {
				return 0
			}
			return 1000 * float64(r.Faults.Retries) / float64(r.Stats.DataWrites)
		}),
	}
	for _, sc := range schemes {
		for _, rate := range rates {
			st.variants = append(st.variants, sim.Cell{Scheme: sc, Edit: func(c *ladder.Config) { c.FaultRate = rate }})
			st.series = append(st.series, fmt.Sprintf("%s@%g", sc, rate))
		}
	}
	return st
}

// LifetimeReportSchema versions the lifetime sweep's report layout.
const LifetimeReportSchema = "ladder.lifetime-report/v1"

// LifetimeCell is one (gap-move period, spare-pool size) combination's
// outcome in a lifetime sweep, averaged across the sweep's workloads.
type LifetimeCell struct {
	GapPeriod int `json:"gap_period"`
	SpareRows int `json:"spare_rows"`
	// RelativeLifetime is the modeled device lifetime relative to the
	// unleveled, spare-less baseline (see relativeLifetime).
	RelativeLifetime float64 `json:"relative_lifetime"`
	// IPCRatio is measured performance relative to the baseline run:
	// the cost side of the lifetime trade.
	IPCRatio float64 `json:"ipc_ratio"`
	// GapMoves and SpareRemaps total the decoder activity across the
	// cell's workload runs.
	GapMoves    uint64 `json:"gap_moves"`
	SpareRemaps uint64 `json:"spare_remaps"`
}

// LifetimeStudy is the lifetime-vs-overhead sweep over the programmable
// decoder's two sizing knobs, how often the start gap moves and how many
// spare rows each bank holds, and its report document (schema
// LifetimeReportSchema; see WriteJSON).
type LifetimeStudy struct {
	Schema     string   `json:"schema"`
	Scheme     string   `json:"scheme"`
	Workloads  []string `json:"workloads"`
	GapPeriods []int    `json:"gap_periods"`
	SpareRows  []int    `json:"spare_rows"`
	// Cells are ordered gap-period-major, spare-pool-minor.
	Cells []LifetimeCell `json:"cells"`
	// Remap merges the decoder accounting of every leveled run in the
	// sweep (the top-level "remap" object CI smoke checks assert against).
	Remap remap.Stats `json:"remap"`
}

// WriteJSON emits the study as indented JSON.
func (s *LifetimeStudy) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// relativeLifetime is the sweep's first-order endurance model over
// measured quantities. The simulator's vertical wear leveling is
// timing-only — store writes stay keyed by logical line — so leveling
// cannot be read off MaxRowWrites directly; instead the hottest row is
// interpolated toward the mean by the fraction of completed start-gap
// rotations:
//
//	rotations = gapMoves / (segments + 1)   // full map rotations
//	leveled   = rotations / (rotations + 1) // asymptotically → 1
//	effMax    = avgRow + (maxRow − avgRow)·(1 − leveled)
//
// Gap moves add maintenance write traffic (one segment copy per move,
// charged as one maintenance write here), and the spare pool adds raw
// row capacity the device fails over to, so the reported ratio is
//
//	(baseMax / effMax) / overhead · (1 + spares·banks/touchedRows)
//
// geom is the cells' geometry; remap.Rotations counts the turns over
// the decoder's start-gap layout on it.
func relativeLifetime(geom reram.Geometry, base, res *ladder.Result, spares int) float64 {
	touched := float64(res.TouchedRows)
	total := float64(res.TotalStoreWrites)
	if touched == 0 || total == 0 {
		return 1
	}
	moves := remapStats(res).GapMoves
	gapMoves := float64(moves)
	rotations := remap.Rotations(geom, sim.VWLSegmentRows, moves)
	leveled := rotations / (rotations + 1)
	avgRow := total / touched
	effMax := avgRow + (float64(res.MaxRowWrites)-avgRow)*(1-leveled)
	if effMax <= 0 {
		return 1
	}
	overhead := (total + gapMoves) / total
	spareFactor := 1 + float64(spares)*float64(geom.Banks())/touched
	return float64(base.MaxRowWrites) / effMax / overhead * spareFactor
}

// lifetime runs the lifetime sweep on the subset over the session's
// axes, each defaulting to its own list when the session sets none.
func lifetime(s *Session) ([]Table, error) {
	periods, spares := s.GapPeriods, s.SpareGrid
	if len(periods) == 0 {
		periods = []int{64, 128, 256}
	}
	if len(spares) == 0 {
		spares = []int{0, 16, 32}
	}
	study, err := lifetimeSweep(s.Ctx, s.on(subset), ladder.SchemeHybrid, periods, spares)
	if err != nil {
		return nil, err
	}
	s.Lifetime = study
	t := perWorkload("Decoder lifetime sweep — relative lifetime and IPC ratio vs gap-move period × spare pool", study.Rows(), study.Series())
	t.Label = "gap period"
	return []Table{t}, nil
}

// lifetimeSweep runs the lifetime study the programmable decoder enables:
// every workload runs once unleveled (the endurance baseline) and once
// per (gap period, spare pool) combination with segment VWL, spare
// remapping and proactive wear-limit retirement enabled — the limit
// auto-scaled to half the workload's observed hottest-row count so short
// runs still exercise the retirement path. Reported per combination:
// modeled relative lifetime and measured IPC ratio (the trade the paper
// prices at ~3% write overhead), averaged across workloads. A bad axis
// (see validateLifetimeAxes) fails the sweep before any cell runs. The
// leveled runs depend on the baselines, so the sweep runs in two
// sim.RunCells stages.
func lifetimeSweep(ctx context.Context, opts ladder.Options, scheme string, periods, spares []int) (*LifetimeStudy, error) {
	if err := validateLifetimeAxes(periods, spares); err != nil {
		return nil, err
	}
	study := &LifetimeStudy{
		Schema:     LifetimeReportSchema,
		Scheme:     scheme,
		Workloads:  workloads(opts),
		GapPeriods: periods,
		SpareRows:  spares,
	}
	geom := opts.Base.Geom
	if geom == (reram.Geometry{}) {
		geom = ladder.DefaultGeometry()
	}
	cells := make([]sim.Cell, len(study.Workloads))
	for i, w := range study.Workloads {
		cells[i] = sim.Cell{Workload: w, Scheme: scheme, Edit: unleveled}
	}
	bases, err := sim.RunCells(ctx, opts, cells)
	if err != nil {
		return nil, err
	}
	var leveled []sim.Cell
	for _, p := range periods {
		for _, sp := range spares {
			for i, w := range study.Workloads {
				limit := bases[i].MaxRowWrites/2 + 1
				leveled = append(leveled, sim.Cell{Workload: w, Scheme: scheme, Edit: func(c *ladder.Config) {
					c.WearLeveling, c.VWLPeriod, c.ProactiveWearLimit = true, p, limit
					c.SpareRows = sp
					if sp == 0 {
						c.SpareRows = -1 // explicit "no spares", not the default pool
					}
				}})
			}
		}
	}
	res, err := sim.RunCells(ctx, opts, leveled)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, p := range periods {
		for _, sp := range spares {
			cell := LifetimeCell{GapPeriod: p, SpareRows: sp}
			for _, base := range bases {
				r := res[k]
				k++
				st := remapStats(r)
				study.Remap.Merge(st)
				cell.GapMoves += st.GapMoves
				cell.SpareRemaps += st.SpareRemaps
				cell.RelativeLifetime += relativeLifetime(geom, base, r, sp)
				if base.AvgIPC() > 0 {
					cell.IPCRatio += r.AvgIPC() / base.AvgIPC()
				}
			}
			n := float64(len(bases))
			cell.RelativeLifetime /= n
			cell.IPCRatio /= n
			study.Cells = append(study.Cells, cell)
		}
	}
	return study, nil
}

// Series lists the sweep's printable column keys in cell order:
// "spares=N life" then "spares=N ipc" for each spare-pool size.
func (s *LifetimeStudy) Series() []string {
	return append(labels("spares=%d life", s.SpareRows), labels("spares=%d ipc", s.SpareRows)...)
}

// Rows renders the study for the experiment text printer: one row per
// gap period, columns per Series.
func (s *LifetimeStudy) Rows() []ladder.Row {
	out := make([]ladder.Row, 0, len(s.GapPeriods))
	for i, p := range s.GapPeriods {
		r := ladder.Row{Workload: fmt.Sprintf("gap=%d", p), Values: make(map[string]float64)}
		for j, sp := range s.SpareRows {
			c := s.Cells[i*len(s.SpareRows)+j]
			r.Values[fmt.Sprintf("spares=%d life", sp)] = c.RelativeLifetime
			r.Values[fmt.Sprintf("spares=%d ipc", sp)] = c.IPCRatio
		}
		out = append(out, r)
	}
	return out
}
