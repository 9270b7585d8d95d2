// Command experiments regenerates the paper's evaluation: the figures,
// tables and studies that internal/evaluation declares (see DESIGN.md's
// experiment index). Output is plain text, one block per table, with
// workloads as rows and schemes as series — the same rows the paper plots.
//
// Usage:
//
//	experiments                 # everything (several minutes)
//	experiments -exp fig12      # one experiment
//	experiments -instr 100000   # cheaper runs
//	experiments -jobs 1         # sequential cells (default: one per CPU)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ladder"
	"ladder/internal/cliflag"
	"ladder/internal/evaluation"
	"ladder/internal/introspect"
	"ladder/internal/logging"
)

// lg is the process logger: slog's default until -log-format sets it.
var lg = slog.Default()

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		lg.Error("experiment failed", "err", err)
		os.Exit(1)
	}
}

// run parses args, runs the selected experiments and prints their tables
// to stdout. Once ctx is canceled (SIGINT/SIGTERM) in-flight simulations
// finish, no further grid or study cell starts, and run returns an error
// instead of printing tables from a partial grid.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	var names, gridNames []string
	for _, e := range evaluation.Experiments {
		names = append(names, e.Name)
		if e.Grid {
			gridNames = append(gridNames, e.Name)
		}
	}
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	var (
		exp    = fs.String("exp", "all", "experiment: "+strings.Join(names, " ")+" all")
		instr  = fs.Uint64("instr", 150_000, "instructions per core per run")
		seed   = fs.Int64("seed", 42, "simulation seed")
		jobs   = fs.Int("jobs", 0, "grid and study cells simulated concurrently (0 = one worker per CPU; 1 = sequential)")
		report = fs.String("report", "", "write a structured JSON grid report (per-cell summaries + merged metrics) to this file")
		http   = fs.String("http", "", "serve live introspection (pprof + grid progress) on this address, e.g. :6060")

		faultRate = fs.Float64("fault-rate", 0, "override the reliability sweep's fault-rate list with this single rate, in (0, 1); see docs/FAULTS.md")
		faultSeed = fs.Int64("fault-seed", 0, "fault-injector PRNG seed for reliability runs (0 = reuse -seed)")
		retryMax  = fs.Int("retry-max", 3, "program-and-verify reissue cap per write in reliability runs (0 disables reissues)")
		spareRows = fs.Int("spare-rows", 32, "per-bank spare-row pool in reliability runs (0 disables remapping)")

		gapPeriods = fs.String("gap-periods", "", "comma-separated gap-move periods for the lifetime sweep (empty = defaults)")
		spareGrid  = fs.String("spare-grid", "", "comma-separated spare-pool sizes for the lifetime sweep (empty = defaults)")

		timelineInterval = fs.Uint64("timeline-interval", 0, "record a telemetry epoch every N simulated cycles in every run (0 disables; see docs/TIMELINE.md)")
		timelineOut      = fs.String("timeline-out", "", "write the merged grid timeline to this file: a .csv extension selects CSV, anything else JSON (requires -timeline-interval and a grid experiment)")
		logFormat        = fs.String("log-format", "", "diagnostic log format on stderr: text (default) or json")
	)
	fs.Parse(args)
	l, err := logging.New(*logFormat, os.Stderr)
	if err != nil {
		return err
	}
	lg = l
	exps := evaluation.Experiments
	if *exp != "all" {
		i := slices.IndexFunc(exps, func(e evaluation.Experiment) bool { return e.Name == *exp })
		if i < 0 {
			return fmt.Errorf("unknown experiment %q; known: %s all", *exp, strings.Join(names, " "))
		}
		exps = exps[i : i+1]
	}
	if err := errors.Join(cliflag.Faults(*faultRate, *retryMax, *spareRows), cliflag.Jobs(*jobs),
		cliflag.Timeline(*timelineInterval, *timelineOut)); err != nil {
		return err
	}
	periods, err := intList(*gapPeriods)
	if err != nil {
		return fmt.Errorf("-gap-periods: %w", err)
	}
	spares, err := intList(*spareGrid)
	if err != nil {
		return fmt.Errorf("-spare-grid: %w", err)
	}
	// -report serializes the sweep study under -exp lifetime and a grid
	// otherwise; -timeline-out always needs a grid. Check that one will
	// exist before any cell runs.
	lifetimeReport := *exp == "lifetime"
	needGrid := (*report != "" && !lifetimeReport) || *timelineOut != ""
	if needGrid && !slices.ContainsFunc(exps, func(e evaluation.Experiment) bool { return e.Grid }) {
		return fmt.Errorf("-report and -timeline-out need a grid experiment (%s or all)", strings.Join(gridNames, " "))
	}

	s := &evaluation.Session{Ctx: ctx, GapPeriods: periods, SpareGrid: spares,
		// The flags take 0 as "off"; Config takes 0 as "default".
		FaultSeed: *faultSeed, RetryMax: cliflag.Count(*retryMax), SpareRows: cliflag.Count(*spareRows),
		Opts: ladder.Options{Instr: *instr, Seed: *seed, Jobs: *jobs,
			Base: ladder.Config{TimelineInterval: *timelineInterval}}}
	if *faultRate > 0 {
		s.FaultRates = []float64{*faultRate}
	}
	if *http != "" {
		srv, err := introspect.New(*http)
		if err != nil {
			return err
		}
		// Graceful drain bounded by a grace period; an interrupt
		// (canceled ctx) collapses it to an immediate close.
		defer func() {
			sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(sctx)
		}()
		fmt.Fprintf(stdout, "introspection: http://%s/ (pprof under /debug/pprof/)\n", srv.Addr())
		s.Opts.Progress = func(p ladder.GridProgress) { srv.Publish("grid", p) }
	}

	for _, e := range exps {
		tables, err := e.Run(s)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		evaluation.Print(stdout, tables...)
	}

	if *report != "" && lifetimeReport {
		return writeReport(stdout, *report, "lifetime report", s.Lifetime.Report().WriteJSON)
	}
	if !needGrid {
		return nil
	}
	gr, err := ladder.NewGridReport(s.ReportGrid())
	if err != nil {
		return err
	}
	if *report != "" {
		if err := writeReport(stdout, *report, "grid report", gr.WriteJSON); err != nil {
			return err
		}
	}
	if *timelineOut == "" {
		return nil
	}
	// The grid report carries the cells' timelines merged epoch-by-epoch
	// (cells run the same instruction budget, so epochs align).
	if gr.Timeline == nil {
		return errors.New("-timeline-out: the selected experiment produced no timeline")
	}
	write := gr.Timeline.WriteJSON
	if strings.HasSuffix(*timelineOut, ".csv") {
		write = gr.Timeline.WriteCSV
	}
	return writeReport(stdout, *timelineOut, "merged timeline", write)
}

// writeReport creates path and streams a JSON document into it via emit.
func writeReport(stdout io.Writer, path, kind string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := errors.Join(emit(f), f.Close()); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n%s written to %s\n", kind, path)
	return nil
}

// intList parses a comma-separated list of non-negative integers; an
// empty string yields nil (caller-defined defaults).
func intList(s string) (out []int, err error) {
	if s == "" {
		return nil, nil
	}
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad value %q: want an integer >= 0", p)
		}
		out = append(out, v)
	}
	return out, nil
}
