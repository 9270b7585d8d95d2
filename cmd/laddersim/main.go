// Command laddersim runs one workload under one write scheme and prints
// the measurements the paper's evaluation reports; with -exp, it runs
// the paper's declared experiments (internal/evaluation: the figures,
// tables and studies of DESIGN.md's experiment index) and prints their
// tables; with -serve, it stays resident as a simulation service: an
// HTTP job queue accepting grid requests, deduplicating identical
// configurations and caching completed reports (see docs/SERVICE.md).
//
// Usage:
//
//	laddersim -workload lbm -scheme LADDER-Hybrid -instr 200000
//	laddersim -exp fig12            # one experiment (-exp all: everything)
//	laddersim -exp all -jobs 1      # sequential cells (default: one per CPU)
//	laddersim -serve -http :8080
//
// Both modes share every simulation flag: a single run uses the lowered
// configuration as it is, and -exp runs every grid and study from it.
// A flag -exp cannot honour (-workload, -scheme, -trace, -trace-out,
// -trace-slowest, -bench, -metrics, -serve) is an error under -exp.
package main

import (
	"cmp"
	"context"
	"encoding/json"
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
	"sync"
	"syscall"
	"time"

	"ladder"
	"ladder/internal/cliflag"
	"ladder/internal/core"
	"ladder/internal/evaluation"
	"ladder/internal/introspect"
	"ladder/internal/logging"
	"ladder/internal/metrics"
	"ladder/internal/service"
	"ladder/internal/timeline"
)

// lg is the process logger: slog's default until -log-format sets it.
var lg = slog.Default()

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		lg.Error("laddersim failed", "err", err)
		os.Exit(1)
	}
}

// mode is what one invocation does: one run, the -exp experiments, or
// the -serve service.
type mode int

const (
	modeRun mode = iota
	modeExp
	modeServe
)

// Each mode honours only some flags and rejects the rest rather than
// silently ignoring them. singleRunOnly are the flags only a single run
// honours, expOnly those only -exp honours, and serviceOnly those only
// -serve honours. -serve honours nothing but serveFlags: its jobs take
// their simulation knobs from each request.
var (
	singleRunOnly = []string{"workload", "scheme", "trace", "trace-out", "trace-slowest", "bench", "metrics"}
	expOnly       = []string{"gap-periods", "spare-grid"}
	serviceOnly   = []string{"queue-depth", "cache-size", "max-instr", "state-dir", "job-timeout", "stall-timeout"}
	serveFlags    = append([]string{"serve", "http", "jobs", "log-format"}, serviceOnly...)
)

// checkMode returns an error for each flag in set (the names of the
// flags given on the command line) that mode m cannot honour.
func checkMode(set []string, m mode) error {
	var errs []error
	for _, name := range set {
		switch {
		case m == modeServe && !slices.Contains(serveFlags, name):
			errs = append(errs, fmt.Errorf("-%s is not a service flag; -serve jobs take their knobs from each request", name))
		case m != modeServe && slices.Contains(serviceOnly, name):
			errs = append(errs, fmt.Errorf("-%s is a service flag; only -serve honours it", name))
		case m == modeExp && slices.Contains(singleRunOnly, name):
			errs = append(errs, fmt.Errorf("-%s is a single-run flag; -exp cannot honour it", name))
		case m == modeRun && slices.Contains(expOnly, name):
			errs = append(errs, fmt.Errorf("-%s is an -exp flag; only -exp honours it", name))
		}
	}
	return errors.Join(errs...)
}

// run parses args and runs the selected mode, printing to stdout. Once
// ctx is canceled (SIGINT/SIGTERM) a run stops at its next engine step,
// an experiment starts no further cell and returns an error instead of
// printing tables from a partial grid, and the service drains.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	var names []string
	for _, e := range evaluation.Experiments {
		names = append(names, e.Name)
	}
	fs := flag.NewFlagSet("laddersim", flag.ExitOnError)
	var (
		workload = fs.String("workload", "lbm", "benchmark or mix name (see -list)")
		scheme   = fs.String("scheme", ladder.SchemeHybrid, "write scheme")
		exp      = fs.String("exp", "", "run a declared experiment instead of one workload: "+strings.Join(names, " ")+" all")
		instr    = fs.Uint64("instr", 200_000, "instructions per core, per run and per grid cell")
		seed     = fs.Int64("seed", 42, "simulation seed")
		wear     = fs.Bool("wear", false, "enable segment-based vertical wear leveling")
		shrink   = fs.Float64("shrink", 0, "shrink timing-table dynamic range by this factor (>1)")
		verify   = fs.Bool("verify", false, "verify end-of-run read-back correctness")
		traceIn  = fs.String("trace", "", "replay a recorded trace (see tracegen) instead of synthesizing")
		list     = fs.Bool("list", false, "list workloads, schemes and experiments, then exit")
		showMet  = fs.Bool("metrics", false, "print the full metrics dump after the summary")
		report   = fs.String("report", "", "write a structured JSON report to this file: the run's, or under -exp the grid's (the sweep's under -exp lifetime; see docs/METRICS.md)")
		bench    = fs.String("bench", "", "write a BENCH-compatible perf snapshot (JSON) to this file")

		traceOut     = fs.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto-loadable) of sampled transactions to this file (see docs/TRACING.md)")
		traceSample  = fs.Int("trace-sample", 1, "with tracing on, record one in every N memory transactions")
		traceSlowest = fs.Int("trace-slowest", 0, "print the N slowest traced writes after the run (enables tracing)")
		httpAddr     = fs.String("http", "", "serve live introspection on this address, e.g. :6060: pprof plus a run's metrics, progress and spans, or -exp's grid progress")

		timelineInterval = fs.Uint64("timeline-interval", 0, "record a telemetry epoch every N simulated cycles in every run (0 disables; see docs/TIMELINE.md)")
		timelineOut      = fs.String("timeline-out", "", "write the run timeline, or under -exp the grid's merged timeline, to this file: a .csv extension selects CSV, anything else JSON (requires -timeline-interval)")
		logFormat        = fs.String("log-format", "", "diagnostic log format on stderr: text (the default; -serve defaults to json) or json")

		faultRate     = fs.Float64("fault-rate", 0, "base transient write-fault probability in [0, 1); 0 disables injection; -exp reliability sweeps this one rate instead of its defaults (see docs/FAULTS.md)")
		faultSeed     = fs.Int64("fault-seed", 0, "fault-injector PRNG seed (0 = reuse -seed)")
		retryMax      = fs.Int("retry-max", 3, "program-and-verify reissue cap per write (0 disables reissues)")
		spareRows     = fs.Int("spare-rows", 32, "per-bank spare-row pool for remapping failed rows (0 disables remapping)")
		remapPenalty  = fs.Float64("remap-penalty", 2, "extra decoder-indirection latency in ns charged to accesses of remapped rows (0 = free; see docs/REMAP.md)")
		proactiveWear = fs.Uint64("proactive-wear", 0, "proactively retire rows whose effective write count reaches this limit (0 disables; see docs/REMAP.md)")

		gapPeriods = fs.String("gap-periods", "", "comma-separated gap-move periods for -exp lifetime (empty = defaults)")
		spareGrid  = fs.String("spare-grid", "", "comma-separated spare-pool sizes for -exp lifetime (empty = defaults)")

		serve      = fs.Bool("serve", false, "run as a long-lived simulation service: HTTP job queue on -http (default :8080; see docs/SERVICE.md)")
		jobs       = fs.Int("jobs", 0, "grid and study cells simulated concurrently under -exp, and per job under -serve (0 = one per CPU; 1 = sequential)")
		queueDepth = fs.Int("queue-depth", 16, "pending-job bound in -serve mode; a full queue rejects submissions with 503")
		cacheSize  = fs.Int("cache-size", 64, "completed jobs retained (LRU) in -serve mode")
		maxInstr   = fs.Uint64("max-instr", 10_000_000, "largest per-core instruction budget a -serve request may ask for")

		stateDir     = fs.String("state-dir", "", "persist -serve job state (one record per job + completed reports, fsync'd) under this directory and recover it on boot; empty = in-memory only (see docs/SERVICE.md)")
		jobTimeout   = fs.Duration("job-timeout", 0, "wall-clock deadline per -serve job; a job still running at the deadline fails with a structured error (0 disables)")
		stallTimeout = fs.Duration("stall-timeout", 0, "watchdog stall bound per -serve job: a running job with no progress heartbeat for this long is canceled and fails (0 disables)")
	)
	fs.Parse(args)
	// Service mode defaults to JSON records (log pipelines); interactive
	// runs default to text. Either mode takes an explicit -log-format.
	format := *logFormat
	if *serve && format == "" {
		format = logging.FormatJSON
	}
	l, err := logging.New(format, os.Stderr)
	if err != nil {
		return err
	}
	lg = l
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	m := modeRun
	switch {
	case *serve:
		m = modeServe
	case *exp != "":
		m = modeExp
	}

	// Lower the flags once: every mode shares s.Opts, whose Base a single
	// run completes with its identity and -exp runs every cell from;
	// -serve runs svc.
	retries, errRetry := cliflag.Off("-retry-max", *retryMax)
	spares, errSpares := cliflag.Off("-spare-rows", *spareRows)
	penalty, errPenalty := cliflag.Off("-remap-penalty", *remapPenalty)
	periods, errPeriods := intList("-gap-periods", *gapPeriods)
	spareSizes, errSpareSizes := intList("-spare-grid", *spareGrid)
	s := &evaluation.Session{Ctx: ctx, GapPeriods: periods, SpareGrid: spareSizes,
		Opts: ladder.Options{Instr: *instr, Seed: *seed, Jobs: *jobs, Base: ladder.Config{
			WearLeveling:       *wear,
			ShrinkRange:        *shrink,
			Verify:             *verify,
			FaultRate:          *faultRate,
			FaultSeed:          *faultSeed,
			RetryMax:           retries,
			SpareRows:          spares,
			RemapPenaltyNs:     penalty,
			ProactiveWearLimit: *proactiveWear,
			TimelineInterval:   *timelineInterval,
		}}}
	svc := service.Config{
		QueueDepth:   *queueDepth,
		CacheSize:    *cacheSize,
		Jobs:         *jobs,
		MaxInstr:     *maxInstr,
		StateDir:     *stateDir,
		JobTimeout:   *jobTimeout,
		StallTimeout: *stallTimeout,
		Logger:       lg,
	}
	// s.Validate checks -jobs, as Options.Jobs; the service would check
	// it again the same way.
	svcKnobs := svc
	svcKnobs.Jobs = 0
	if err := errors.Join(checkMode(set, m), errRetry, errSpares, errPenalty, errPeriods, errSpareSizes,
		cliflag.Trace(*traceSample, *traceSlowest),
		cliflag.Timeline(*timelineInterval, *timelineOut),
		cliflag.NonZero("-queue-depth", *queueDepth),
		cliflag.NonZero("-cache-size", *cacheSize),
		svcKnobs.Validate(),
		s.Validate(),
	); err != nil {
		return err
	}

	switch {
	case *list:
		fmt.Fprintln(stdout, "workloads:", strings.Join(ladder.Workloads(), " "))
		fmt.Fprintln(stdout, "schemes:  ", strings.Join(ladder.SchemeNames(), " "))
		fmt.Fprintln(stdout, "experiments:", strings.Join(names, " "), "all")
		return nil
	case m == modeServe:
		return runServe(ctx, stdout, cmp.Or(*httpAddr, ":8080"), svc)
	case m == modeExp:
		return runExperiments(s, stdout, *exp, *httpAddr, *report, *timelineOut)
	}

	cfg := s.Opts.Base
	cfg.Workload, cfg.Scheme, cfg.InstrPerCore, cfg.Seed, cfg.TraceFile = *workload, *scheme, *instr, *seed, *traceIn
	// -http implies tracing so the live /spans feed has content.
	if *traceOut != "" || *traceSlowest > 0 || *httpAddr != "" {
		cfg.TraceSample = *traceSample
		cfg.TraceSlowest = *traceSlowest
	}
	var srv *introspect.Server
	if *httpAddr != "" {
		if srv, err = startIntrospection(stdout, *httpAddr); err != nil {
			return err
		}
		defer shutdown(ctx, srv)
		publishRun(srv, &cfg)
	}

	res, err := ladder.Run(cfg)
	if err != nil {
		return fmt.Errorf("run %s/%s: %w", *workload, *scheme, err)
	}

	fmt.Fprintf(stdout, "workload            %s\n", res.Workload)
	fmt.Fprintf(stdout, "scheme              %s\n", res.Scheme)
	fmt.Fprintf(stdout, "simulated time      %.2f us (%d cycles @4GHz)\n", float64(res.Ticks)/4000, res.Ticks)
	for i, ipc := range res.PerCoreIPC {
		fmt.Fprintf(stdout, "core %d IPC          %.4f\n", i, ipc)
	}
	rep := ladder.NewReport(res)
	st := res.Stats
	fmt.Fprintf(stdout, "data reads          %d\n", st.DataReads)
	fmt.Fprintf(stdout, "data writes         %d\n", st.DataWrites)
	fmt.Fprintf(stdout, "SMB reads           %d\n", st.SMBReads)
	fmt.Fprintf(stdout, "metadata reads      %d (cache hits %d, misses %d)\n", st.MetaReads, st.MetaCacheHits, st.MetaCacheMisses)
	fmt.Fprintf(stdout, "metadata writes     %d\n", st.MetaWrites)
	fmt.Fprintf(stdout, "extra reads         %.1f%%\n", 100*st.ExtraReadFraction())
	fmt.Fprintf(stdout, "extra writes        %.1f%%\n", 100*st.ExtraWriteFraction())
	fmt.Fprintf(stdout, "avg write service   %.1f ns\n", st.AvgWriteServiceNs())
	rd := rep.Metrics.Histograms[core.MetricReadLatencyNs]
	fmt.Fprintf(stdout, "avg read latency    %.1f ns (p50 %.0f, p99 %.0f)\n", st.AvgReadLatencyNs(), rd.P50, rd.P99)
	if st.CounterDiffN > 0 {
		fmt.Fprintf(stdout, "avg counter gap     %.1f (estimated - accurate C_lrs)\n", st.AvgCounterDiff())
	}
	if st.FNWUnits > 0 {
		fmt.Fprintf(stdout, "FNW flips           %.1f%% of units (%.2f%% canceled by constraint)\n",
			100*float64(st.FNWFlips)/float64(st.FNWUnits),
			100*float64(st.FNWCanceled)/float64(st.FNWUnits))
	}
	fmt.Fprintf(stdout, "dynamic energy      read %.1f nJ, write %.1f nJ\n", res.ReadNJ, res.WriteNJ)
	if *verify {
		fmt.Fprintln(stdout, "verification        PASS (all written lines decode to their logical content)")
	}

	rl := rep.ResetLatency
	fmt.Fprintf(stdout, "RESET latency       n=%d mean %.1f p50 %.1f p95 %.1f p99 %.1f max %.1f ns\n",
		rl.Count, rl.MeanNs, rl.P50Ns, rl.P95Ns, rl.P99Ns, rl.MaxNs)
	if f := rep.Faults; f != nil {
		fmt.Fprintf(stdout, "faults              %d injected / %d checked, %d retries (mean %.1f ns), %d exhausted\n",
			f.Injected, f.Checked, f.Retries, f.RetryLatency.MeanNs, f.Exhausted)
	}
	if m := rep.Remap; m != nil {
		fmt.Fprintf(stdout, "remap               %d gap moves, %d spare remaps (%d spares used), %d penalty ticks\n",
			m.GapMoves, m.SpareRemaps, m.SparesUsed, m.PenaltyTicks)
	}
	fmt.Fprintf(stdout, "wall clock          %.1f ms\n", rep.WallClockMS)
	if *showMet {
		fmt.Fprintln(stdout, "\nmetrics (see docs/METRICS.md)")
		fmt.Fprint(stdout, rep.Metrics.Text())
	}
	if *report != "" {
		if err := writeFile(*report, rep.WriteJSON); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
		fmt.Fprintf(stdout, "report written      %s\n", *report)
	}
	if *timelineOut != "" && res.Timeline != nil {
		if err := writeFile(*timelineOut, timelineWriter(res.Timeline, *timelineOut)); err != nil {
			return fmt.Errorf("writing timeline: %w", err)
		}
		fmt.Fprintf(stdout, "timeline written    %s (%d epochs of %d cycles)\n",
			*timelineOut, len(res.Timeline.Epochs), res.Timeline.EffectiveInterval)
	}
	if *bench != "" {
		doc := rep.Bench(fmt.Sprintf("laddersim-%s-%s", res.Workload, res.Scheme))
		if err := writeFile(*bench, doc.WriteJSON); err != nil {
			return fmt.Errorf("writing bench snapshot: %w", err)
		}
		fmt.Fprintf(stdout, "bench written       %s\n", *bench)
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, res.Trace.WriteChromeTrace); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		sum := res.Trace.Summary()
		fmt.Fprintf(stdout, "trace written       %s (%d spans of %d transactions, load in Perfetto/chrome://tracing)\n",
			*traceOut, sum.Completed, sum.Seen)
	}
	if *traceSlowest > 0 {
		fmt.Fprintln(stdout)
		if err := res.Trace.WriteSlowestDigest(stdout); err != nil {
			return fmt.Errorf("writing slowest-write digest: %w", err)
		}
	}
	// Leave the final state readable on the introspection server until the
	// process exits (typically immediately; useful under a debugger).
	srv.Publish("report", rep)
	return nil
}

// runExperiments runs the experiment called name (or all of them) on s
// and prints their tables. -report writes the lifetime sweep's study
// under -exp lifetime and the grid otherwise; -timeline-out writes the
// grid's merged timeline.
func runExperiments(s *evaluation.Session, stdout io.Writer, name, httpAddr, report, timelineOut string) error {
	exps := evaluation.Experiments
	if name != "all" {
		i := slices.IndexFunc(exps, func(e evaluation.Experiment) bool { return e.Name == name })
		if i < 0 {
			var names []string
			for _, e := range exps {
				names = append(names, e.Name)
			}
			return fmt.Errorf("unknown experiment %q; known: %s all", name, strings.Join(names, " "))
		}
		exps = exps[i : i+1]
	}
	// Check that a grid to serialize will exist before any cell runs.
	lifetimeReport := name == "lifetime"
	needGrid := (report != "" && !lifetimeReport) || timelineOut != ""
	if needGrid && !slices.ContainsFunc(exps, func(e evaluation.Experiment) bool { return e.Grid }) {
		var grids []string
		for _, e := range evaluation.Experiments {
			if e.Grid {
				grids = append(grids, e.Name)
			}
		}
		return fmt.Errorf("-report and -timeline-out need a grid experiment (%s or all)", strings.Join(grids, " "))
	}
	if httpAddr != "" {
		srv, err := startIntrospection(stdout, httpAddr)
		if err != nil {
			return err
		}
		defer shutdown(s.Ctx, srv)
		s.Opts.Progress = func(p ladder.GridProgress) { srv.Publish("grid", p) }
	}

	for _, e := range exps {
		tables, err := e.Run(s)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		evaluation.Print(stdout, tables...)
	}

	if report != "" && lifetimeReport {
		return writeReport(stdout, report, "lifetime report", s.Lifetime.WriteJSON)
	}
	if !needGrid {
		return nil
	}
	gr, err := ladder.NewGridReport(s.ReportGrid())
	if err != nil {
		return err
	}
	if report != "" {
		if err := writeReport(stdout, report, "grid report", gr.WriteJSON); err != nil {
			return err
		}
	}
	if timelineOut == "" {
		return nil
	}
	// The grid report carries the cells' timelines merged epoch-by-epoch
	// (cells run the same instruction budget, so epochs align).
	if gr.Timeline == nil {
		return errors.New("-timeline-out: the selected experiment produced no timeline")
	}
	return writeReport(stdout, timelineOut, "merged timeline", timelineWriter(gr.Timeline, timelineOut))
}

// startIntrospection serves pprof and the live documents on addr.
func startIntrospection(stdout io.Writer, addr string) (*introspect.Server, error) {
	srv, err := introspect.New(addr)
	if err != nil {
		return nil, fmt.Errorf("introspection server: %w", err)
	}
	fmt.Fprintf(stdout, "introspection       http://%s/ (pprof under /debug/pprof/)\n", srv.Addr())
	return srv, nil
}

// shutdown drains srv with a bounded grace period: in-flight scrapes
// finish; an interrupt (canceled ctx) collapses the grace to an
// immediate close.
func shutdown(ctx context.Context, srv *introspect.Server) {
	sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(sctx)
}

// publishRun hooks a single run's progress, metrics, spans and timeline
// into srv's live documents.
func publishRun(srv *introspect.Server, cfg *ladder.Config) {
	cfg.ProgressDetail = true
	// The latest progress snapshot doubles as the Prometheus scrape
	// source: /metrics/prom serves it labeled with the run identity.
	var promMu sync.Mutex
	var promSnap metrics.Snapshot
	runLabel := []metrics.PromLabel{{Name: "run", Value: cfg.Workload + "/" + cfg.Scheme}}
	srv.Handle("GET /metrics/prom", introspect.PromHandler(func() (metrics.Snapshot, []metrics.PromLabel, []metrics.PromSample) {
		promMu.Lock()
		defer promMu.Unlock()
		return promSnap, runLabel, nil
	}))
	cfg.Progress = func(p ladder.ProgressInfo) {
		srv.Publish("progress", p)
		if p.Metrics != nil {
			srv.Publish("metrics", p.Metrics)
			promMu.Lock()
			promSnap = *p.Metrics
			promMu.Unlock()
		}
		if p.Spans != nil {
			srv.Publish("spans", p.Spans)
		}
	}
	if cfg.TimelineInterval == 0 {
		return
	}
	// Live timeline: every closed epoch appends to the /timeline document,
	// which decimates exactly as the run's own timeline does, and streams
	// to /timeline/events subscribers as SSE.
	broker := introspect.NewBroker(0)
	srv.Handle("GET /timeline/events", broker)
	var tlMu sync.Mutex
	live := timeline.New(cfg.TimelineInterval)
	cfg.TimelineOnEpoch = func(e ladder.TimelineEpoch) {
		tlMu.Lock()
		live.Append(e)
		tlMu.Unlock()
		if ev, err := json.Marshal(e); err == nil {
			broker.Publish(ev)
		}
	}
	srv.PublishFunc("timeline", func() any {
		tlMu.Lock()
		defer tlMu.Unlock()
		return live.Clone()
	})
}

// timelineWriter picks tl's export format by path: a .csv extension
// selects CSV, anything else JSON.
func timelineWriter(tl *ladder.Timeline, path string) func(io.Writer) error {
	if strings.HasSuffix(path, ".csv") {
		return tl.WriteCSV
	}
	return tl.WriteJSON
}

// writeReport writes a document to path with writeFile and says so on
// stdout.
func writeReport(stdout io.Writer, path, kind string, write func(io.Writer) error) error {
	if err := writeFile(path, write); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n%s written to %s\n", kind, path)
	return nil
}

// writeFile creates path and streams a document into it via write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}

// intList parses the comma-separated integer list of flag name; an
// empty string yields nil (the study's defaults). The study checks the
// values' ranges.
func intList(name, s string) (out []int, err error) {
	if s == "" {
		return nil, nil
	}
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("%s: bad value %q: want an integer", name, p)
		}
		out = append(out, v)
	}
	return out, nil
}
