// Package evaluation declares the paper's evaluation once: every figure,
// table and study this repository regenerates is a named Experiment that
// returns titled tables. cmd/experiments and the root package's
// BenchmarkEvaluation both loop over Experiments, so they cannot drift
// apart.
package evaluation

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"strconv"

	"ladder"
	"ladder/internal/bits"
	"ladder/internal/core"
	"ladder/internal/timing"
	"ladder/internal/trace"
)

// An Experiment is one named figure, table or study.
type Experiment struct {
	// Name selects the experiment (cmd/experiments -exp) and names its
	// sub-benchmark (BenchmarkEvaluation/<Name>).
	Name string
	// Grid marks an experiment that builds a scheme grid, the document
	// -report and -timeline-out serialize.
	Grid bool
	Run  func(*Session) ([]Table, error)
}

// A Table is one printed block: one row per workload (or other label),
// one column per series.
type Table struct {
	Title string
	// Label heads the row-label column; empty means "workload".
	Label  string
	Series []string
	// Rows print in order; per-workload tables end with their AVG row.
	Rows []ladder.Row
	// Digits holds each series' decimal places; a short list repeats its
	// last entry for the remaining series, and none means 3.
	Digits []int
}

// Session carries what one evaluation's experiments share: the options
// every grid and study starts from, the sweep settings the command's
// flags choose, and the grids built so far, so the 16×7 figure grid
// behind Figures 12–17 runs once however many experiments read it.
type Session struct {
	// Ctx cancels the session's grids and studies; it must be set.
	Ctx context.Context
	// Opts scopes every grid and study. Experiments that run one of the
	// paper's workload subsets replace Opts.Workloads.
	Opts ladder.Options
	// GapPeriods and SpareGrid are the lifetime sweep's axes (nil = its
	// defaults).
	GapPeriods, SpareGrid []int
	// FaultRates replaces the reliability sweep's fault rates when set.
	FaultRates []float64
	// FaultSeed, RetryMax and SpareRows configure the reliability
	// sweep's cells in Config's convention (0 = default, negative = off).
	FaultSeed           int64
	RetryMax, SpareRows int
	// Lifetime is the lifetime sweep's study once it has run.
	Lifetime      *ladder.LifetimeStudy
	figures, last *ladder.Grid
}

// ReportGrid is the grid a report serializes: the figure grid when an
// experiment read it, otherwise the last grid any experiment built, or
// nil when none did.
func (s *Session) ReportGrid() *ladder.Grid { return cmp.Or(s.figures, s.last) }

// figureGrid returns the figure schemes over Opts' workloads, built on
// first use.
func (s *Session) figureGrid() (*ladder.Grid, error) {
	var err error
	if s.figures == nil {
		s.figures, err = ladder.RunGridCtx(s.Ctx, s.Opts, ladder.FigureSchemes())
	}
	return s.figures, err
}

// view runs schemes over opts' workloads and derives rows from the grid.
func (s *Session) view(opts ladder.Options, schemes []string, derive func(*ladder.Grid) []ladder.Row) ([]ladder.Row, error) {
	g, err := ladder.RunGridCtx(s.Ctx, opts, schemes)
	if err != nil {
		return nil, err
	}
	s.last = g
	return derive(g), nil
}

// on is Opts restricted to workloads.
func (s *Session) on(workloads []string) ladder.Options {
	o := s.Opts
	o.Workloads = workloads
	return o
}

// subset is the three-workload subset the costlier sweeps run on.
var subset = []string{"lbm", "mcf", "mix-7"}

// ladders are the three LADDER variants Figure 14 and the traffic
// analyses compare.
var ladders = []string{ladder.SchemeBasic, ladder.SchemeEst, ladder.SchemeHybrid}

// motivation are Figure 2's schemes: worst-case, location-aware and
// data/location-aware writes.
var motivation = []string{ladder.SchemeBaseline, ladder.SchemeLocAware, ladder.SchemeOracle}

// Experiments is the evaluation, in the order `-exp all` prints it.
var Experiments = []Experiment{
	{Name: "table4", Run: table4},
	{Name: "storage", Run: storage},
	{Name: "fig4", Run: fig4},
	{Name: "fig11", Run: fig11},
	{Name: "subgroups", Run: subgroups},
	{Name: "granularity", Run: granularity},
	{Name: "fig2", Grid: true, Run: fig2},
	{Name: "fig12", Grid: true, Run: figure("Figure 12 — normalized average write service time", (*ladder.Grid).WriteServiceTime, ladder.FigureSchemes()...)},
	{Name: "fig13", Grid: true, Run: figure("Figure 13 — normalized average read latency", (*ladder.Grid).ReadLatency, ladder.FigureSchemes()...)},
	{Name: "fig14", Grid: true, Run: fig14},
	{Name: "fig16", Grid: true, Run: figure("Figure 16 — speedup over baseline (weighted IPC)", (*ladder.Grid).Speedup, ladder.FigureSchemes()...)},
	{Name: "fig17", Grid: true, Run: figure("Figure 17 — dynamic memory energy normalized to baseline (each cell: read+write)", energyTotals,
		ladder.SchemeSplitReset, ladder.SchemeBLP, ladder.SchemeBasic, ladder.SchemeEst, ladder.SchemeHybrid)},
	{Name: "fnw", Grid: true, Run: figure("Section 6.1 — FNW flip cancellations (fraction of units; paper <4%)", (*ladder.Grid).FNWCancellation, ladders...)},
	{Name: "ideallife", Grid: true, Run: figure("Section 6.4 — relative lifetime under ideal wear leveling (data writes over all writes)", (*ladder.Grid).RelativeLifetime, ladders...)},
	{Name: "fig15", Grid: true, Run: fig15},
	{Name: "ablation", Run: ablation},
	{Name: "wear", Run: wear},
	{Name: "lifetime", Run: lifetime},
	{Name: "vwlmode", Run: vwlmode},
	{Name: "crash", Run: crash},
	{Name: "cachesize", Run: cachesize},
	{Name: "reliability", Run: reliability},
	{Name: "lowrows", Run: lowrows},
}

// Print renders tables as text: each under a blank line and its title,
// a left-aligned row-label column, then one right-aligned column per
// series.
func Print(w io.Writer, tables ...Table) {
	for _, t := range tables {
		label := cmp.Or(t.Label, "workload")
		lw := max(10, len(label)+2)
		for _, r := range t.Rows {
			lw = max(lw, len(r.Workload)+2)
		}
		fmt.Fprintf(w, "\n%s\n%-*s", t.Title, lw, label)
		for _, s := range t.Series {
			fmt.Fprintf(w, "%*s", colWidth(s), s)
		}
		for _, r := range t.Rows {
			fmt.Fprintf(w, "\n%-*s", lw, r.Workload)
			for i, s := range t.Series {
				fmt.Fprintf(w, "%*.*f", colWidth(s), t.digits(i), r.Values[s])
			}
		}
		fmt.Fprintln(w)
	}
}

func colWidth(s string) int { return max(len(s)+2, 9) }

func (t Table) digits(i int) int {
	if len(t.Digits) == 0 {
		return 3
	}
	return t.Digits[min(i, len(t.Digits)-1)]
}

// perWorkload is a table of workload rows closed by their AVG row.
func perWorkload(title string, rows []ladder.Row, series []string) Table {
	return Table{Title: title, Series: series, Rows: append(rows, ladder.Average(rows))}
}

// one wraps a study's rows as an experiment's only table.
func one(title string, rows []ladder.Row, err error, series ...string) ([]Table, error) {
	if err != nil {
		return nil, err
	}
	return []Table{perWorkload(title, rows, series)}, nil
}

// labels formats each of a sweep's values as its column label.
func labels(format string, vals []int) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf(format, v)
	}
	return out
}

// row labels values by series, in order.
func row(label string, series []string, vals ...float64) ladder.Row {
	r := ladder.Row{Workload: label, Values: make(map[string]float64, len(series))}
	for i, s := range series {
		r.Values[s] = vals[i]
	}
	return r
}

// figure is an experiment that derives one table from the figure grid.
func figure(title string, view func(*ladder.Grid) []ladder.Row, series ...string) func(*Session) ([]Table, error) {
	return func(s *Session) ([]Table, error) {
		g, err := s.figureGrid()
		if err != nil {
			return nil, err
		}
		return one(title, view(g), nil, series...)
	}
}

func table4(*Session) ([]Table, error) {
	t := Table{Title: fmt.Sprintf("Table 4 — LADDER controller hardware overhead (published synthesis results; on-chip timing tables: %d bytes)", core.TimingTableBytes),
		Label: "module", Series: []string{"area mm2", "power mW", "latency ns"}, Digits: []int{4, 2}}
	for _, m := range ladder.ControllerOverheads() {
		t.Rows = append(t.Rows, row(m.Name, t.Series, m.AreaMM2, m.PowerMW, m.LatencyNs))
	}
	return []Table{t}, nil
}

func storage(*Session) ([]Table, error) {
	basic, est, hybrid := ladder.MetadataOverheads()
	t := Table{Title: "Section 6.3 — LRS-metadata storage overhead (percent of capacity; for LADDER-Hybrid's layout see EXPERIMENTS.md)",
		Label: "scheme", Series: []string{"measured %", "paper %"}, Digits: []int{4, 2}}
	paper := []float64{3.12, 1.56, 0.97} // in ladders' order
	for i, frac := range []float64{basic, est, hybrid} {
		t.Rows = append(t.Rows, row(ladders[i], t.Series, 100*frac, paper[i]))
	}
	return []Table{t}, nil
}

func fig4(*Session) ([]Table, error) {
	ts, err := ladder.DefaultTables()
	if err != nil {
		return nil, err
	}
	n := ladder.DefaultCrossbarParams().N
	near, far := ts.ContentCurve(0, 0), ts.ContentCurve(n-1, n-1)
	t := Table{Title: "Figure 4b — RESET latency (ns) vs WL LRS percentage, near and far cells", Label: "WL LRS %",
		Series: []string{"near", "far"}, Digits: []int{1}}
	for cb := range timing.Buckets {
		pct := float64((cb+1)*(n/timing.Buckets)) / float64(n) * 100
		t.Rows = append(t.Rows, row(fmt.Sprintf("%.0f", pct), t.Series, near[cb], far[cb]))
	}
	return []Table{t}, nil
}

func fig11(*Session) ([]Table, error) {
	ts, err := ladder.DefaultTables()
	if err != nil {
		return nil, err
	}
	// Rows and columns are labeled by each bucket's last WL/BL index.
	last := make([]int, timing.Buckets)
	for i := range last {
		last[i] = (i+1)*(ladder.DefaultCrossbarParams().N/timing.Buckets) - 1
	}
	keys := labels("%d", last)
	var out []Table
	// The all-'0's pattern is the lowest content bucket, all-'1's the highest.
	for i, pattern := range []string{"all-0s", "all-1s"} {
		surface := ts.Surface(i * (timing.Buckets - 1))
		t := Table{Title: "Figure 11 — latency surface (ns), WL pattern " + pattern,
			Label: `WL\BL`, Series: keys, Digits: []int{1}}
		for wb, key := range keys {
			t.Rows = append(t.Rows, row(key, keys, surface[wb][:]...))
		}
		out = append(out, t)
	}
	return out, nil
}

// subgroups is the Section 4.1 subgroup-count study: the mean amount by
// which the exact-subgroup partial-counter bound overestimates a page's
// true C_lrs, on 20 pages of 64 written lines per workload.
func subgroups(s *Session) ([]Table, error) {
	ns := []int{1, 2, 4, 8, 16}
	series := labels("N=%d", ns)
	const pages = 20
	var rows []ladder.Row
	for _, wl := range []string{"astar", "lbm", "libq", "mcf"} {
		gen, err := trace.NewGenerator(trace.Profiles[wl], s.Opts.Seed, 0)
		if err != nil {
			return nil, err
		}
		over := make([]float64, len(ns))
		for range pages {
			lines := make([]bits.Line, 0, 64)
			for len(lines) < cap(lines) {
				if a := gen.Next(); a.Write {
					lines = append(lines, a.Data)
				}
			}
			truth := bits.TrueCwLRS(lines)
			for i, n := range ns {
				over[i] += float64(bits.EstimateCwLRSExactN(lines, n)-truth) / pages
			}
		}
		rows = append(rows, row(wl, series, over...))
	}
	t := perWorkload("Section 4.1 — subgroup-count ablation: mean C_lrs overestimate (counts of 512; the paper picks N=4)", rows, series)
	t.Digits = []int{1}
	return []Table{t}, nil
}

// granularity is Section 5's table-reduction study: the latency each
// coarse table adds over a 16-bucket reference, and its on-chip storage.
func granularity(*Session) ([]Table, error) {
	ts, err := ladder.DefaultTables()
	if err != nil {
		return nil, err
	}
	gen := func(buckets int) (*timing.NTable, error) {
		return timing.GenerateN(ladder.DefaultCrossbarParams(), ts.Model, buckets, timing.TableOptions{Content: timing.WLContent})
	}
	const reference = 16
	fine, err := gen(reference)
	if err != nil {
		return nil, err
	}
	t := Table{Title: fmt.Sprintf("Section 5 — table granularity vs a %d-bucket reference (paper: 8×8×8 costs <3%% system impact)", reference),
		Label: "buckets", Series: []string{"storage B", "mean infl %", "max infl %"}, Digits: []int{0, 1}}
	for _, buckets := range []int{2, 4, 8} {
		coarse, err := gen(buckets)
		if err != nil {
			return nil, err
		}
		mean, worst, err := timing.GranularityCost(coarse, fine)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row(strconv.Itoa(buckets), t.Series, float64(coarse.StorageBytes()), 100*mean, 100*worst))
	}
	return []Table{t}, nil
}

func fig2(s *Session) ([]Table, error) {
	rows, err := s.view(s.on(ladder.SingleWorkloads()), motivation, (*ladder.Grid).Speedup)
	return one("Figure 2 — normalized IPC (worst-case vs location-aware vs data/location-aware)", rows, err, motivation...)
}

func fig14(s *Session) ([]Table, error) {
	g, err := s.figureGrid()
	if err != nil {
		return nil, err
	}
	return []Table{perWorkload("Figure 14a — additional reads (fraction of baseline reads)", g.ExtraReads(), ladders),
		perWorkload("Figure 14b — additional writes (fraction of baseline writes)", g.ExtraWrites(), ladders)}, nil
}

// energyTotals is Figure 17's read+write energy of each scheme.
func energyTotals(g *ladder.Grid) []ladder.Row {
	var rows []ladder.Row
	for _, es := range g.DynamicEnergy() {
		r := ladder.Row{Workload: es.Workload, Values: make(map[string]float64, len(es.Read))}
		for sc, read := range es.Read {
			r.Values[sc] = read + es.Write[sc]
		}
		rows = append(rows, r)
	}
	return rows
}

func fig15(s *Session) ([]Table, error) {
	rows, err := s.view(s.Opts, []string{ladder.SchemeEstNoShift, ladder.SchemeEst}, (*ladder.Grid).CounterDiffs)
	return one("Figure 15 — LRS-counter difference, LADDER-Est minus accurate", rows, err, "without-shift", "with-shift")
}

func ablation(s *Session) ([]Table, error) {
	rows, err := ladder.RangeAblation(s.Ctx, s.Opts, ladder.SchemeEst, 2)
	return one("Section 7 — benefit retained with 2x shrunk latency range (paper ≈85%)", rows, err, "gain-full", "gain-shrunk", "retained")
}

func wear(s *Session) ([]Table, error) {
	rows, err := ladder.WearLevelingImpact(s.Ctx, s.Opts, ladder.SchemeHybrid)
	return one("Section 6.4 — IPC with VWL enabled relative to without (paper ≈99%)", rows, err, "ipc-ratio", "gap-moves")
}

func lifetime(s *Session) ([]Table, error) {
	study, err := ladder.LifetimeSweep(s.Ctx, s.on(subset), ladder.SchemeHybrid, s.GapPeriods, s.SpareGrid)
	if err != nil {
		return nil, err
	}
	s.Lifetime = study
	t := perWorkload("Decoder lifetime sweep — relative lifetime and IPC ratio vs gap-move period × spare pool", study.Rows(), study.Series())
	t.Label = "gap period"
	return []Table{t}, nil
}

func vwlmode(s *Session) ([]Table, error) {
	rows, err := ladder.VWLModeComparison(s.Ctx, s.Opts, ladder.SchemeEst)
	return one("Section 6.4 — segment vs line VWL (metadata reads per data write, IPC)", rows, err,
		"segment-metareads", "line-metareads", "segment-ipc", "line-ipc")
}

func crash(s *Session) ([]Table, error) {
	rows, err := ladder.CrashRecoveryStudy(s.Ctx, s.Opts, ladder.SchemeEst)
	return one("Section 7 — crash recovery with lazy conservative correction", rows, err,
		"pre-service-ns", "post-service-ns", "post-counter-gap")
}

func cachesize(s *Session) ([]Table, error) {
	sizesKB := []int{16, 32, 64, 128, 256}
	rows, err := ladder.CacheSizeSweep(s.Ctx, s.on(subset), ladder.SchemeHybrid, sizesKB)
	return one("Section 6.3 — metadata cache size ablation (IPC vs default 64KB; paper <2% gain)", rows, err, labels("%dKB", sizesKB)...)
}

func reliability(s *Session) ([]Table, error) {
	opts := s.on(subset)
	opts.Base.FaultSeed, opts.Base.RetryMax, opts.Base.SpareRows = s.FaultSeed, s.RetryMax, s.SpareRows
	rates := s.FaultRates
	if rates == nil {
		rates = []float64{0.001, 0.01}
	}
	var series []string
	for _, sc := range ladders {
		for _, r := range rates {
			series = append(series, fmt.Sprintf("%s@%g", sc, r))
		}
	}
	rows, err := ladder.ReliabilitySweep(s.Ctx, opts, ladders, rates)
	return one("Reliability — program-and-verify retries per 1000 data writes (stale-margin effect; see docs/FAULTS.md)", rows, err, series...)
}

func lowrows(s *Session) ([]Table, error) {
	lowRows := []int{0, 64, 128, 256, 512}
	rows, err := ladder.LowPrecisionSweep(s.Ctx, s.on(subset), lowRows)
	return one("Section 4.2 — Hybrid precision-register ablation (avg write service ns)", rows, err, labels("rows=%d svc", lowRows)...)
}
