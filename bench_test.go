// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Sections 5–7). Each benchmark regenerates its
// experiment's rows/series and prints them, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The per-core instruction budget can be
// raised with LADDER_BENCH_INSTR (default 60000) for higher-fidelity
// sweeps; results are also reported as benchmark metrics.
package ladder_test

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"ladder"
	"ladder/internal/bits"
	"ladder/internal/core"
	"ladder/internal/sim"
	"ladder/internal/timing"
	"ladder/internal/trace"
)

func benchInstr() uint64 {
	if s := os.Getenv("LADDER_BENCH_INSTR"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil && v > 0 {
			return v
		}
	}
	return 60_000
}

var (
	gridOnce sync.Once
	gridMain *ladder.Grid
	gridErr  error
)

// mainGrid runs the shared 16-workload × 7-scheme sweep behind Figures
// 12, 13, 14, 16, 17 and the Section 6 analyses, once per process.
func mainGrid(b *testing.B) *ladder.Grid {
	b.Helper()
	gridOnce.Do(func() {
		gridMain, gridErr = ladder.RunGrid(
			ladder.Options{Instr: benchInstr(), Seed: 42},
			ladder.FigureSchemes())
	})
	if gridErr != nil {
		b.Fatal(gridErr)
	}
	return gridMain
}

func printRows(title string, rows []ladder.Row, series []string) {
	fmt.Println("\n" + title)
	fmt.Printf("%-10s", "workload")
	for _, s := range series {
		fmt.Printf("%20s", s)
	}
	fmt.Println()
	all := append(append([]ladder.Row(nil), rows...), ladder.Average(rows))
	for _, r := range all {
		fmt.Printf("%-10s", r.Workload)
		for _, s := range series {
			fmt.Printf("%20.3f", r.Values[s])
		}
		fmt.Println()
	}
}

// BenchmarkFigure02Motivation regenerates Figure 2: normalized IPC under
// worst-case, location-aware and data/location-aware (Oracle) writes for
// the eight single-programmed workloads.
func BenchmarkFigure02Motivation(b *testing.B) {
	schemes := []string{ladder.SchemeBaseline, ladder.SchemeLocAware, ladder.SchemeOracle}
	var rows []ladder.Row
	for i := 0; i < b.N; i++ {
		grid, err := ladder.RunGrid(ladder.Options{
			Instr: benchInstr(), Seed: 42, Workloads: ladder.SingleWorkloads(),
		}, schemes)
		if err != nil {
			b.Fatal(err)
		}
		rows = grid.Speedup()
	}
	printRows("Figure 2 — normalized IPC", rows, schemes)
	avg := ladder.Average(rows)
	b.ReportMetric(avg.Values[ladder.SchemeLocAware], "locaware-speedup")
	b.ReportMetric(avg.Values[ladder.SchemeOracle], "oracle-speedup")
}

// BenchmarkFigure04LatencyVsContent regenerates Figure 4b: RESET latency
// as a function of wordline LRS percentage for a near and a far cell,
// from the circuit model.
func BenchmarkFigure04LatencyVsContent(b *testing.B) {
	var near, far []float64
	for i := 0; i < b.N; i++ {
		ts, err := ladder.DefaultTables()
		if err != nil {
			b.Fatal(err)
		}
		n := ladder.DefaultCrossbarParams().N
		near = ts.ContentCurve(0, 0)
		far = ts.ContentCurve(n-1, n-1)
	}
	fmt.Println("\nFigure 4b — RESET latency (ns) vs WL LRS percentage")
	fmt.Printf("%-10s %10s %10s\n", "LRS %", "near", "far")
	for cb := range near {
		fmt.Printf("%-10.0f %10.1f %10.1f\n", float64(cb+1)/float64(timing.Buckets)*100, near[cb], far[cb])
	}
	b.ReportMetric(far[timing.Buckets-1]/far[0], "far-cell-content-ratio")
}

// BenchmarkFigure11LatencySurface regenerates Figure 11: the RESET
// latency surface over (WL, BL) location at the all-'0's and all-'1's
// wordline patterns.
func BenchmarkFigure11LatencySurface(b *testing.B) {
	var empty, full [timing.Buckets][timing.Buckets]float64
	for i := 0; i < b.N; i++ {
		ts, err := ladder.DefaultTables()
		if err != nil {
			b.Fatal(err)
		}
		empty = ts.Surface(0)
		full = ts.Surface(timing.Buckets - 1)
	}
	for _, s := range []struct {
		name string
		data [timing.Buckets][timing.Buckets]float64
	}{{"all-0s", empty}, {"all-1s", full}} {
		fmt.Printf("\nFigure 11 — latency surface (ns), %s pattern\n", s.name)
		for wb := 0; wb < timing.Buckets; wb++ {
			for bb := 0; bb < timing.Buckets; bb++ {
				fmt.Printf("%8.1f", s.data[wb][bb])
			}
			fmt.Println()
		}
	}
	b.ReportMetric(full[timing.Buckets-1][timing.Buckets-1]/empty[0][0], "corner-dynamic-range")
}

// BenchmarkFigure12WriteServiceTime regenerates Figure 12: average write
// service time normalized to baseline for all schemes and workloads.
func BenchmarkFigure12WriteServiceTime(b *testing.B) {
	grid := mainGrid(b)
	var rows []ladder.Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = grid.WriteServiceTime()
	}
	printRows("Figure 12 — normalized write service time", rows, grid.Schemes)
	avg := ladder.Average(rows)
	b.ReportMetric(avg.Values[ladder.SchemeHybrid], "hybrid-norm-service")
	b.ReportMetric(avg.Values[ladder.SchemeSplitReset], "splitreset-norm-service")
}

// BenchmarkFigure13ReadLatency regenerates Figure 13: average processor
// read latency normalized to baseline.
func BenchmarkFigure13ReadLatency(b *testing.B) {
	grid := mainGrid(b)
	var rows []ladder.Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = grid.ReadLatency()
	}
	printRows("Figure 13 — normalized read latency", rows, grid.Schemes)
	avg := ladder.Average(rows)
	b.ReportMetric(avg.Values[ladder.SchemeHybrid], "hybrid-norm-read")
}

// BenchmarkFigure14ExtraTraffic regenerates Figure 14: additional reads
// and writes from LRS-metadata maintenance for the three LADDER variants.
func BenchmarkFigure14ExtraTraffic(b *testing.B) {
	grid := mainGrid(b)
	ladders := []string{ladder.SchemeBasic, ladder.SchemeEst, ladder.SchemeHybrid}
	var reads, writes []ladder.Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reads = grid.ExtraReads()
		writes = grid.ExtraWrites()
	}
	printRows("Figure 14a — additional reads (fraction)", reads, ladders)
	printRows("Figure 14b — additional writes (fraction)", writes, ladders)
	ar, aw := ladder.Average(reads), ladder.Average(writes)
	b.ReportMetric(ar.Values[ladder.SchemeBasic], "basic-extra-reads")
	b.ReportMetric(ar.Values[ladder.SchemeHybrid], "hybrid-extra-reads")
	b.ReportMetric(aw.Values[ladder.SchemeHybrid], "hybrid-extra-writes")
}

// BenchmarkFigure15EstimationAccuracy regenerates Figure 15: the average
// gap between LADDER-Est's estimated C_lrs and the accurate counters,
// without (a) and with (b) intra-line bit shifting.
func BenchmarkFigure15EstimationAccuracy(b *testing.B) {
	var rows []ladder.Row
	for i := 0; i < b.N; i++ {
		grid, err := ladder.RunGrid(ladder.Options{Instr: benchInstr(), Seed: 42},
			[]string{ladder.SchemeEstNoShift, ladder.SchemeEst})
		if err != nil {
			b.Fatal(err)
		}
		rows = grid.CounterDiffs()
	}
	printRows("Figure 15 — C_lrs difference (Est − accurate)", rows, []string{"without-shift", "with-shift"})
	avg := ladder.Average(rows)
	b.ReportMetric(avg.Values["without-shift"], "diff-noshift")
	b.ReportMetric(avg.Values["with-shift"], "diff-shift")
}

// BenchmarkFigure16Speedup regenerates Figure 16: weighted speedup over
// the baseline for every scheme and workload.
func BenchmarkFigure16Speedup(b *testing.B) {
	grid := mainGrid(b)
	var rows []ladder.Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = grid.Speedup()
	}
	printRows("Figure 16 — speedup over baseline", rows, grid.Schemes)
	avg := ladder.Average(rows)
	b.ReportMetric(avg.Values[ladder.SchemeHybrid], "hybrid-speedup")
	b.ReportMetric(avg.Values[ladder.SchemeOracle], "oracle-speedup")
	if avg.Values[ladder.SchemeOracle] > 0 {
		b.ReportMetric(avg.Values[ladder.SchemeHybrid]/avg.Values[ladder.SchemeOracle], "fraction-of-oracle")
	}
}

// BenchmarkFigure17DynamicEnergy regenerates Figure 17: dynamic memory
// energy normalized to baseline with the read/write split.
func BenchmarkFigure17DynamicEnergy(b *testing.B) {
	grid := mainGrid(b)
	var splits []ladder.EnergySplit
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		splits = grid.DynamicEnergy()
	}
	schemes := []string{ladder.SchemeSplitReset, ladder.SchemeBLP, ladder.SchemeBasic, ladder.SchemeEst, ladder.SchemeHybrid}
	fmt.Println("\nFigure 17 — dynamic energy normalized to baseline (total = read+write)")
	fmt.Printf("%-10s", "workload")
	for _, s := range schemes {
		fmt.Printf("%16s", s)
	}
	fmt.Println()
	totals := map[string]float64{}
	for _, es := range splits {
		fmt.Printf("%-10s", es.Workload)
		for _, s := range schemes {
			t := es.Read[s] + es.Write[s]
			totals[s] += t
			fmt.Printf("%16.3f", t)
		}
		fmt.Println()
	}
	fmt.Printf("%-10s", "AVG")
	for _, s := range schemes {
		fmt.Printf("%16.3f", totals[s]/float64(len(splits)))
	}
	fmt.Println()
	b.ReportMetric(totals[ladder.SchemeHybrid]/float64(len(splits)), "hybrid-norm-energy")
	b.ReportMetric(totals[ladder.SchemeBLP]/float64(len(splits)), "blp-norm-energy")
}

// BenchmarkTable04HardwareOverhead reports the controller hardware
// overheads (published synthesis constants; see DESIGN.md) and the
// analytic metadata storage overheads of Section 6.3.
func BenchmarkTable04HardwareOverhead(b *testing.B) {
	var basic, est, hybrid float64
	for i := 0; i < b.N; i++ {
		basic, est, hybrid = ladder.MetadataOverheads()
	}
	fmt.Println("\nTable 4 — controller hardware overhead (published constants)")
	for _, m := range ladder.ControllerOverheads() {
		fmt.Printf("%-32s %8.4f mm2 %8.2f mW %8.2f ns\n", m.Name, m.AreaMM2, m.PowerMW, m.LatencyNs)
	}
	fmt.Printf("\nSection 6.3 — metadata storage: basic %.4f%%, est %.4f%%, hybrid %.4f%%\n",
		100*basic, 100*est, 100*hybrid)
	fmt.Printf("timing tables on-chip: %d bytes\n", core.TimingTableBytes)
	b.ReportMetric(100*hybrid, "hybrid-storage-pct")
}

// BenchmarkSection64Lifetime regenerates the Section 6.4 analysis:
// relative lifetime under ideal wear leveling and the IPC cost of VWL.
func BenchmarkSection64Lifetime(b *testing.B) {
	grid := mainGrid(b)
	var life []ladder.Row
	var wearRows []ladder.Row
	for i := 0; i < b.N; i++ {
		life = grid.RelativeLifetime()
		var err error
		wearRows, err = ladder.WearLevelingImpact(context.Background(), ladder.Options{
			Instr: benchInstr(), Seed: 42,
			Workloads: []string{"lbm", "mcf", "mix-7"},
		}, ladder.SchemeHybrid)
		if err != nil {
			b.Fatal(err)
		}
	}
	printRows("Section 6.4 — relative lifetime under ideal wear leveling",
		life, []string{ladder.SchemeBasic, ladder.SchemeEst, ladder.SchemeHybrid})
	printRows("Section 6.4 — IPC ratio with VWL enabled (subset)",
		wearRows, []string{"ipc-ratio", "gap-moves"})
	avg := ladder.Average(life)
	b.ReportMetric(avg.Values[ladder.SchemeHybrid], "hybrid-rel-lifetime")
}

// BenchmarkSection7RangeAblation regenerates the Section 7 study: the
// benefit retained when the latency dynamic range shrinks 2×.
func BenchmarkSection7RangeAblation(b *testing.B) {
	var rows []ladder.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = ladder.RangeAblation(context.Background(), ladder.Options{
			Instr: benchInstr(), Seed: 42,
			Workloads: []string{"lbm", "libq", "mcf", "mix-7"},
		}, ladder.SchemeEst, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	printRows("Section 7 — 2x range shrink (subset)", rows,
		[]string{"gain-full", "gain-shrunk", "retained"})
	b.ReportMetric(ladder.Average(rows).Values["retained"], "benefit-retained")
}

// BenchmarkFNWConstraint regenerates the Section 6.1 datum: the fraction
// of FNW flip opportunities canceled by LADDER's ones constraint.
func BenchmarkFNWConstraint(b *testing.B) {
	grid := mainGrid(b)
	var rows []ladder.Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = grid.FNWCancellation()
	}
	printRows("Section 6.1 — FNW cancellations (fraction of units; paper <4%)",
		rows, []string{ladder.SchemeBasic, ladder.SchemeEst, ladder.SchemeHybrid})
	b.ReportMetric(ladder.Average(rows).Values[ladder.SchemeHybrid], "fnw-canceled-frac")
}

// BenchmarkSimulatorThroughput measures raw simulator speed (simulated
// instructions per second) — not a paper figure, but useful for sizing
// sweeps.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ladder.Run(ladder.Config{
			Workload:     "astar",
			Scheme:       ladder.SchemeHybrid,
			InstrPerCore: 50_000,
			Seed:         int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(50_000*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkWriteHeavyThroughput measures simulator speed on the paper's
// write-dominated workload (lbm, ~48% writes): long RESET pulses keep the
// banks busy for hundreds of cycles at a time, so this is the benchmark
// that shows what the event-driven engine buys over per-cycle ticking.
func BenchmarkWriteHeavyThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ladder.Run(ladder.Config{
			Workload:     "lbm",
			Scheme:       ladder.SchemeHybrid,
			InstrPerCore: 50_000,
			Seed:         int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(50_000*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// TestBenchHarnessSmoke keeps the bench harness itself under test: a tiny
// grid exercises every derivation path.
func TestBenchHarnessSmoke(t *testing.T) {
	grid, err := sim.RunGrid(sim.Options{Instr: 10_000, Seed: 1, Workloads: []string{"astar"}},
		[]string{sim.SchemeBaseline, sim.SchemeEst, sim.SchemeEstNoShift})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.WriteServiceTime()) != 1 || len(grid.ReadLatency()) != 1 ||
		len(grid.Speedup()) != 1 || len(grid.ExtraReads()) != 1 ||
		len(grid.DynamicEnergy()) != 1 || len(grid.CounterDiffs()) != 1 {
		t.Fatal("grid derivations incomplete")
	}
}

// BenchmarkSubgroupAblation studies the partial-counter estimator's
// tightness as a function of the subgroup count N (the paper empirically
// sets N = 4, Section 4.1): average overestimate (counts of 512) of the
// exact-subgroup bound versus the true C_lrs, on workload-shaped pages.
func BenchmarkSubgroupAblation(b *testing.B) {
	ns := []int{1, 2, 4, 8, 16}
	var avg map[int]float64
	for iter := 0; iter < b.N; iter++ {
		avg = map[int]float64{}
		samples := 0
		for _, wl := range []string{"astar", "lbm", "libq", "mcf"} {
			gen, err := trace.NewGenerator(trace.Profiles[wl], 42, 0)
			if err != nil {
				b.Fatal(err)
			}
			for page := 0; page < 20; page++ {
				lines := make([]bits.Line, 64)
				got := 0
				for got < 64 {
					a := gen.Next()
					if !a.Write {
						continue
					}
					lines[got] = a.Data
					got++
				}
				truth := bits.TrueCwLRS(lines)
				for _, n := range ns {
					avg[n] += float64(bits.EstimateCwLRSExactN(lines, n) - truth)
				}
				samples++
			}
		}
		for _, n := range ns {
			avg[n] /= float64(samples)
		}
	}
	fmt.Println("\nSubgroup-count ablation — mean overestimate of C_lrs (counts of 512)")
	for _, n := range ns {
		fmt.Printf("  N=%-3d %8.1f\n", n, avg[n])
	}
	b.ReportMetric(avg[4], "overestimate-N4")
	b.ReportMetric(avg[1], "overestimate-N1")
}

// BenchmarkTableGranularity quantifies Section 5's table-reduction claim:
// the latency inflation the 8×8×8 table adds over finer-grained tables,
// and the on-chip storage each would need.
func BenchmarkTableGranularity(b *testing.B) {
	p := ladder.DefaultCrossbarParams()
	var rows [][4]float64
	for i := 0; i < b.N; i++ {
		m, err := timing.Calibrate(p)
		if err != nil {
			b.Fatal(err)
		}
		fine, err := timing.GenerateN(p, m, 16, timing.TableOptions{Content: timing.WLContent})
		if err != nil {
			b.Fatal(err)
		}
		rows = rows[:0]
		for _, buckets := range []int{2, 4, 8} {
			coarse, err := timing.GenerateN(p, m, buckets, timing.TableOptions{Content: timing.WLContent})
			if err != nil {
				b.Fatal(err)
			}
			mean, max, err := timing.GranularityCost(coarse, fine)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, [4]float64{float64(buckets), float64(coarse.StorageBytes()), mean, max})
		}
	}
	fmt.Println("\nSection 5 — table granularity vs 16-bucket reference (paper: 8×8×8 costs <3% system impact)")
	fmt.Printf("%-10s %12s %12s %12s\n", "buckets", "storage B", "mean infl", "max infl")
	for _, r := range rows {
		fmt.Printf("%-10.0f %12.0f %11.1f%% %11.1f%%\n", r[0], r[1], 100*r[2], 100*r[3])
	}
	b.ReportMetric(100*rows[2][2], "mean-inflation-pct-8buckets")
}
