// Command benchratchet enforces the repo's speed trend. It replays the
// configuration of every committed BENCH_*.json anchor (workload ×
// scheme at the anchors' fixed seed and instruction count), measures
// fresh ladder.bench/v1 snapshots, and compares instr_per_sec against
// the committed numbers: any anchor regressing by more than -threshold
// fails the run with a nonzero exit, otherwise the trajectory table is
// printed. CI runs this as the bench-ratchet job and uploads the fresh
// snapshots as artifacts (see docs/PERFORMANCE.md for the anchor-update
// policy).
//
// Usage:
//
//	benchratchet                  # compare against BENCH_*.json in the repo root
//	benchratchet -out /tmp/fresh  # additionally write fresh snapshots there
//	benchratchet -update          # rewrite the anchors in place (post-campaign refresh)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ladder"
	"ladder/internal/sim"
)

func main() {
	var (
		anchors   = flag.String("anchors", "BENCH_*.json", "glob of committed anchor snapshots")
		threshold = flag.Float64("threshold", 0.10, "fractional regression budget (0.10 = fail below 90% of the anchor)")
		runs      = flag.Int("runs", 3, "least measured runs per anchor, taken until they also cover 1 s; the fastest counts (damps scheduler noise)")
		instr     = flag.Uint64("instr", 0, "instructions per core (0 = each anchor's own instructions_retired, so replays match the committed scale)")
		seed      = flag.Int64("seed", 42, "simulation seed (matches the committed anchors)")
		outDir    = flag.String("out", "", "write fresh snapshots into this directory (created if missing)")
		update    = flag.Bool("update", false, "rewrite the anchor files in place with the fresh numbers")
		label     = flag.String("label", "", "free-form provenance label stamped into fresh snapshots (e.g. the CI runner class)")
	)
	flag.Parse()
	if err := run(*anchors, *threshold, *runs, *instr, *seed, *outDir, *update, *label); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(glob string, threshold float64, runs int, instr uint64, seed int64, outDir string, update bool, label string) error {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return fmt.Errorf("benchratchet: bad -anchors glob: %w", err)
	}
	if len(paths) == 0 {
		return fmt.Errorf("benchratchet: no anchors match %q — nothing to ratchet", glob)
	}
	if runs < 1 {
		runs = 1
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fmt.Errorf("benchratchet: %w", err)
		}
	}

	var comparisons []Comparison
	for _, path := range paths {
		anchor, err := LoadAnchor(path)
		if err != nil {
			return err
		}
		fresh, err := measure(anchor, runs, instr, seed, label)
		if err != nil {
			return err
		}
		comparisons = append(comparisons, Compare(
			anchor.Doc.Name,
			anchor.Doc.Metrics[speedMetric],
			fresh.Metrics[speedMetric],
			threshold,
		))
		if outDir != "" {
			dst := filepath.Join(outDir, filepath.Base(path))
			if err := writeBench(dst, fresh); err != nil {
				return err
			}
		}
		if update {
			if err := writeBench(path, fresh); err != nil {
				return err
			}
			fmt.Printf("refreshed %s\n", path)
		}
	}

	fmt.Print(TrajectoryTable(comparisons))
	if AnyRegression(comparisons) {
		return fmt.Errorf("benchratchet: speed regression beyond %.0f%% budget (see table above)", threshold*100)
	}
	return nil
}

// minMeasured is the least wall clock an anchor's measured runs cover
// together. A single run of an anchor lasts about 0.1 s, shorter than a
// shared host's noise, so `runs` of them alone let one anchor's best
// read anywhere from 0.90× to 1.40× of its anchor between passes.
const minMeasured = time.Second

// enoughRuns is measure's stop rule: n measured runs that took elapsed
// wall clock together suffice once there are at least runs of them and
// they cover minMeasured.
func enoughRuns(n, runs int, elapsed time.Duration) bool {
	return n >= runs && elapsed >= minMeasured
}

// measure replays one anchor's configuration: a warm-up run (timing
// tables, page cache) followed by measured runs until enoughRuns holds,
// keeping the fastest snapshot — the ratchet compares capability, not
// scheduler luck, and a conservative fresh number only ever
// under-fails. Each measured run first drops the resident rows and
// streams earlier runs left behind, so it draws them cold, as the
// anchors were measured.
func measure(a Anchor, runs int, instr uint64, seed int64, label string) (*sim.BenchReport, error) {
	if instr == 0 {
		// Replay at the anchor's own scale so the measured window matches
		// the committed one (short runs amortize startup differently).
		instr = uint64(a.Doc.Metrics["instructions_retired"])
	}
	if instr == 0 {
		return nil, fmt.Errorf("benchratchet: anchor %s: no instructions_retired and no -instr override", a.Doc.Name)
	}
	cfg := ladder.Config{
		Workload:     a.Doc.Workload,
		Scheme:       a.Doc.Scheme,
		InstrPerCore: instr,
		Seed:         seed,
	}
	warm := cfg
	warm.InstrPerCore = instr / 4
	if warm.InstrPerCore > 0 {
		if _, err := ladder.Run(warm); err != nil {
			return nil, fmt.Errorf("benchratchet: warm-up %s: %w", a.Doc.Name, err)
		}
	}
	var best *sim.BenchReport
	var elapsed time.Duration
	for n := 0; !enoughRuns(n, runs, elapsed); n++ {
		ladder.DropResidents()
		start := time.Now()
		res, err := ladder.Run(cfg)
		elapsed += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("benchratchet: measuring %s: %w", a.Doc.Name, err)
		}
		doc := ladder.NewReport(res).Bench(a.Doc.Name)
		if best == nil || doc.Metrics[speedMetric] > best.Metrics[speedMetric] {
			best = doc
		}
	}
	// Stamp the environment the numbers were measured under: comparing
	// against an anchor from a different toolchain or core count is
	// comparing different machines, and the snapshot should say so.
	best.Provenance = &sim.BenchProvenance{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Label:      label,
	}
	return best, nil
}

// writeBench writes one fresh snapshot.
func writeBench(path string, doc *sim.BenchReport) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("benchratchet: %w", err)
	}
	if err := doc.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("benchratchet: writing %s: %w", path, err)
	}
	return f.Close()
}
