// Benchmark harness: BenchmarkEvaluation runs every experiment that
// internal/evaluation declares as one sub-benchmark, printing the same
// tables cmd/experiments prints, so `go test -run xxx -bench Evaluation .`
// reproduces the whole evaluation. LADDER_BENCH_INSTR raises the
// per-core instruction budget (default 60000). Each table's AVG row is
// reported as metrics in units of <experiment>/<series>; an experiment
// with several tables suffixes a, b, … to its name (fig14a, fig14b).
package ladder_test

import (
	"context"
	"os"
	"strconv"
	"strings"
	"testing"

	"ladder"
	"ladder/internal/evaluation"
)

func benchInstr() uint64 {
	if s := os.Getenv("LADDER_BENCH_INSTR"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil && v > 0 {
			return v
		}
	}
	return 60_000
}

// BenchmarkEvaluation runs every declared experiment on one session, so
// the figure grid behind Figures 12–17 is built once, by the first
// sub-benchmark that reads it.
func BenchmarkEvaluation(b *testing.B) {
	s := &evaluation.Session{Ctx: context.Background(), Opts: ladder.Options{Instr: benchInstr(), Seed: 42}}
	for _, e := range evaluation.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			var tables []evaluation.Table
			for range b.N {
				var err error
				if tables, err = e.Run(s); err != nil {
					b.Fatal(err)
				}
			}
			evaluation.Print(os.Stdout, tables...)
			for i, t := range tables {
				id := e.Name
				if len(tables) > 1 {
					id += string(rune('a' + i))
				}
				if avg := t.Rows[len(t.Rows)-1]; avg.Workload == "AVG" {
					for _, series := range t.Series {
						// ReportMetric rejects units with whitespace.
						b.ReportMetric(avg.Values[series], id+"/"+strings.ReplaceAll(series, " ", "_"))
					}
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (simulated
// instructions per second) — not a paper figure, but useful for sizing
// sweeps.
func BenchmarkSimulatorThroughput(b *testing.B) { throughput(b, "astar") }

// BenchmarkWriteHeavyThroughput measures simulator speed on the paper's
// write-dominated workload (lbm, ~48% writes): long RESET pulses keep the
// banks busy for hundreds of cycles at a time, so this is the benchmark
// that shows what the event-driven engine buys over per-cycle ticking.
func BenchmarkWriteHeavyThroughput(b *testing.B) { throughput(b, "lbm") }

// throughput runs LADDER-Hybrid on workload at 50k instructions per core,
// one seed per iteration, and reports simulated instructions per second.
func throughput(b *testing.B, workload string) {
	for i := 0; i < b.N; i++ {
		if _, err := ladder.Run(ladder.Config{
			Workload:     workload,
			Scheme:       ladder.SchemeHybrid,
			InstrPerCore: 50_000,
			Seed:         int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(50_000*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}
