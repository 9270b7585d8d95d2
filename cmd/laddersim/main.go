// Command laddersim runs one workload under one write scheme and prints
// the measurements the paper's evaluation reports — or, with -serve,
// stays resident as a simulation service: an HTTP job queue accepting
// grid requests, deduplicating identical configurations and caching
// completed reports (see docs/SERVICE.md).
//
// Usage:
//
//	laddersim -workload lbm -scheme LADDER-Hybrid -instr 200000
//	laddersim -serve -http :8080
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"ladder"
	"ladder/internal/introspect"
	"ladder/internal/logging"
	"ladder/internal/metrics"
	"ladder/internal/timeline"
)

func main() {
	var (
		workload = flag.String("workload", "lbm", "benchmark or mix name (see -list)")
		scheme   = flag.String("scheme", ladder.SchemeHybrid, "write scheme")
		instr    = flag.Uint64("instr", 200_000, "instructions per core")
		seed     = flag.Int64("seed", 42, "simulation seed")
		wear     = flag.Bool("wear", false, "enable segment-based vertical wear leveling")
		shrink   = flag.Float64("shrink", 0, "shrink timing-table dynamic range by this factor (>1)")
		verify   = flag.Bool("verify", false, "verify end-of-run read-back correctness")
		traceIn  = flag.String("trace", "", "replay a recorded trace (see tracegen) instead of synthesizing")
		list     = flag.Bool("list", false, "list workloads and schemes, then exit")
		showMet  = flag.Bool("metrics", false, "print the full metrics dump after the summary")
		report   = flag.String("report", "", "write a structured JSON run report to this file (see docs/METRICS.md)")
		bench    = flag.String("bench", "", "write a BENCH-compatible perf snapshot (JSON) to this file")

		traceOut     = flag.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto-loadable) of sampled transactions to this file (see docs/TRACING.md)")
		traceSample  = flag.Int("trace-sample", 1, "with tracing on, record one in every N memory transactions")
		traceSlowest = flag.Int("trace-slowest", 0, "print the N slowest traced writes after the run (enables tracing)")
		httpAddr     = flag.String("http", "", "serve live introspection (pprof, metrics, progress, spans) on this address, e.g. :6060")

		timelineInterval = flag.Uint64("timeline-interval", 0, "record a telemetry epoch every N simulated cycles (0 disables; see docs/TIMELINE.md)")
		timelineOut      = flag.String("timeline-out", "", "write the run timeline to this file: a .csv extension selects CSV, anything else JSON (requires -timeline-interval)")
		logFormat        = flag.String("log-format", "", "diagnostic log format on stderr: text (the default; -serve defaults to json) or json")

		faultRate     = flag.Float64("fault-rate", 0, "base transient write-fault probability in [0, 1); 0 disables injection (see docs/FAULTS.md)")
		faultSeed     = flag.Int64("fault-seed", 0, "fault-injector PRNG seed (0 = reuse -seed)")
		retryMax      = flag.Int("retry-max", 3, "program-and-verify reissue cap per write (0 disables reissues)")
		spareRows     = flag.Int("spare-rows", 32, "per-bank spare-row pool for remapping failed rows (0 disables remapping)")
		remapPenalty  = flag.Float64("remap-penalty", 2, "extra decoder-indirection latency in ns charged to accesses of remapped rows (0 = free; see docs/REMAP.md)")
		proactiveWear = flag.Uint64("proactive-wear", 0, "proactively retire rows whose effective write count reaches this limit (0 disables; see docs/REMAP.md)")

		serve      = flag.Bool("serve", false, "run as a long-lived simulation service: HTTP job queue on -http (default :8080; see docs/SERVICE.md)")
		jobs       = flag.Int("jobs", 0, "grid cells simulated concurrently per job in -serve mode (0 = one per CPU)")
		queueDepth = flag.Int("queue-depth", 16, "pending-job bound in -serve mode; a full queue rejects submissions with 503")
		cacheSize  = flag.Int("cache-size", 64, "completed jobs retained (LRU) in -serve mode")
		maxInstr   = flag.Uint64("max-instr", 10_000_000, "largest per-core instruction budget a -serve request may ask for")

		stateDir     = flag.String("state-dir", "", "persist -serve job state (one record per job + completed reports, fsync'd) under this directory and recover it on boot; empty = in-memory only (see docs/SERVICE.md)")
		jobTimeout   = flag.Duration("job-timeout", 0, "wall-clock deadline per -serve job; a job still running at the deadline fails with a structured error (0 disables)")
		stallTimeout = flag.Duration("stall-timeout", 0, "watchdog stall bound per -serve job: a running job with no progress heartbeat for this long is canceled and fails (0 disables)")
	)
	flag.Parse()
	// Service mode defaults to JSON records (log pipelines); interactive
	// runs default to text. Either mode takes an explicit -log-format.
	format := *logFormat
	if *serve && format == "" {
		format = logging.FormatJSON
	}
	lg, err := logging.New(format, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "laddersim:", err)
		os.Exit(2)
	}
	if err := validateFlags(*traceSample, *traceSlowest, *faultRate, *retryMax, *spareRows, *remapPenalty); err != nil {
		lg.Error("invalid flags", "err", err)
		os.Exit(2)
	}
	if err := validateTimelineFlags(*timelineInterval, *timelineOut); err != nil {
		lg.Error("invalid flags", "err", err)
		os.Exit(2)
	}
	if err := validateServeFlags(*jobs, *queueDepth, *cacheSize, *jobTimeout, *stallTimeout); err != nil {
		lg.Error("invalid flags", "err", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *list {
		fmt.Println("workloads:", strings.Join(ladder.Workloads(), " "))
		fmt.Println("schemes:  ", strings.Join(ladder.SchemeNames(), " "))
		return
	}

	if *serve {
		addr := *httpAddr
		if addr == "" {
			addr = ":8080"
		}
		os.Exit(runServe(ctx, serveConfig{
			addr:         addr,
			jobs:         *jobs,
			queueDepth:   *queueDepth,
			cacheSize:    *cacheSize,
			maxInstr:     *maxInstr,
			stateDir:     *stateDir,
			jobTimeout:   *jobTimeout,
			stallTimeout: *stallTimeout,
			logger:       lg,
		}))
	}

	cfg := ladder.Config{
		Workload:     *workload,
		Scheme:       *scheme,
		InstrPerCore: *instr,
		Seed:         *seed,
		WearLeveling: *wear,
		ShrinkRange:  *shrink,
		Verify:       *verify,
		TraceFile:    *traceIn,
		FaultRate:    *faultRate,
		FaultSeed:    *faultSeed,
		RetryMax:     flagCount(*retryMax),
		SpareRows:    flagCount(*spareRows),

		RemapPenaltyNs:     flagNs(*remapPenalty),
		ProactiveWearLimit: *proactiveWear,

		TimelineInterval: *timelineInterval,
	}
	// -http implies tracing so the live /spans feed has content.
	if *traceOut != "" || *traceSlowest > 0 || *httpAddr != "" {
		cfg.TraceSample = *traceSample
		cfg.TraceSlowest = *traceSlowest
	}
	var srv *introspect.Server
	if *httpAddr != "" {
		var err error
		srv, err = introspect.New(*httpAddr)
		if err != nil {
			lg.Error("introspection server failed", "err", err)
			os.Exit(1)
		}
		// Graceful drain with a bounded grace period: in-flight scrapes
		// finish; an interrupt (canceled signal context) collapses the
		// grace to an immediate close.
		defer func() {
			sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(sctx)
		}()
		fmt.Printf("introspection       http://%s/ (pprof under /debug/pprof/)\n", srv.Addr())
		cfg.ProgressDetail = true
		if cfg.ProgressEvery == 0 {
			// Snapshot often enough that short runs are observable too; the
			// default 5M-cycle period outlives many of them.
			cfg.ProgressEvery = 250_000
		}
		// The latest progress snapshot doubles as the Prometheus scrape
		// source: /metrics/prom serves it labeled with the run identity.
		var promMu sync.Mutex
		var promSnap metrics.Snapshot
		runLabel := []metrics.PromLabel{{Name: "run", Value: *workload + "/" + *scheme}}
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
		if *timelineInterval > 0 {
			// Live timeline: every closed epoch appends to the /timeline
			// document and streams to /timeline/events subscribers as SSE.
			broker := introspect.NewBroker(0)
			srv.Handle("GET /timeline/events", broker)
			var tlMu sync.Mutex
			var epochs []ladder.TimelineEpoch
			cfg.TimelineOnEpoch = func(e ladder.TimelineEpoch) {
				tlMu.Lock()
				epochs = append(epochs, e)
				tlMu.Unlock()
				if ev, err := json.Marshal(e); err == nil {
					broker.Publish(ev)
				}
			}
			srv.PublishFunc("timeline", func() any {
				tlMu.Lock()
				defer tlMu.Unlock()
				return ladder.Timeline{
					Schema:            timeline.Schema,
					Interval:          *timelineInterval,
					EffectiveInterval: *timelineInterval,
					Epochs:            append([]ladder.TimelineEpoch(nil), epochs...),
				}
			})
		}
	}

	res, err := ladder.Run(cfg)
	if err != nil {
		lg.Error("run failed", "workload", *workload, "scheme", *scheme, "err", err)
		os.Exit(1)
	}

	fmt.Printf("workload            %s\n", res.Workload)
	fmt.Printf("scheme              %s\n", res.Scheme)
	fmt.Printf("simulated time      %.2f us (%d cycles @4GHz)\n", float64(res.Ticks)/4000, res.Ticks)
	for i, ipc := range res.PerCoreIPC {
		fmt.Printf("core %d IPC          %.4f\n", i, ipc)
	}
	st := res.Stats
	fmt.Printf("data reads          %d\n", st.DataReads)
	fmt.Printf("data writes         %d\n", st.DataWrites)
	fmt.Printf("SMB reads           %d\n", st.SMBReads)
	fmt.Printf("metadata reads      %d (cache hits %d, misses %d)\n", st.MetaReads, st.MetaCacheHits, st.MetaCacheMisses)
	fmt.Printf("metadata writes     %d\n", st.MetaWrites)
	fmt.Printf("extra reads         %.1f%%\n", 100*st.ExtraReadFraction())
	fmt.Printf("extra writes        %.1f%%\n", 100*st.ExtraWriteFraction())
	fmt.Printf("avg write service   %.1f ns\n", st.AvgWriteServiceNs())
	fmt.Printf("avg read latency    %.1f ns (p50 ≤ %.0f, p99 ≤ %.0f)\n",
		st.AvgReadLatencyNs(), st.ReadLatencyPercentile(0.5), st.ReadLatencyPercentile(0.99))
	if st.CounterDiffN > 0 {
		fmt.Printf("avg counter gap     %.1f (estimated - accurate C_lrs)\n", st.AvgCounterDiff())
	}
	if st.FNWUnits > 0 {
		fmt.Printf("FNW flips           %.1f%% of units (%.2f%% canceled by constraint)\n",
			100*float64(st.FNWFlips)/float64(st.FNWUnits),
			100*float64(st.FNWCanceled)/float64(st.FNWUnits))
	}
	fmt.Printf("dynamic energy      read %.1f nJ, write %.1f nJ\n", res.ReadNJ, res.WriteNJ)
	if res.GapMoves > 0 {
		fmt.Printf("VWL gap moves       %d\n", res.GapMoves)
	}
	if *verify {
		fmt.Println("verification        PASS (all written lines decode to their logical content)")
	}

	rep := ladder.NewReport(res)
	rl := rep.ResetLatency
	fmt.Printf("RESET latency       n=%d mean %.1f p50 %.1f p95 %.1f p99 %.1f max %.1f ns\n",
		rl.Count, rl.MeanNs, rl.P50Ns, rl.P95Ns, rl.P99Ns, rl.MaxNs)
	if f := rep.Faults; f != nil {
		fmt.Printf("faults              %d injected / %d checked, %d retries (mean %.1f ns), %d exhausted\n",
			f.Injected, f.Checked, f.Retries, f.RetryLatency.MeanNs, f.Exhausted)
	}
	if m := rep.Remap; m != nil {
		fmt.Printf("remap               %d gap moves, %d spare remaps (%d spares used), %d penalty ticks\n",
			m.GapMoves, m.SpareRemaps, m.SparesUsed, m.PenaltyTicks)
	}
	fmt.Printf("wall clock          %.1f ms\n", rep.WallClockMS)
	if *showMet {
		fmt.Println("\nmetrics (see docs/METRICS.md)")
		fmt.Print(rep.Metrics.Text())
	}
	if *report != "" {
		if err := writeJSONFile(*report, rep.WriteJSON); err != nil {
			lg.Error("writing report", "path", *report, "err", err)
			os.Exit(1)
		}
		fmt.Printf("report written      %s\n", *report)
	}
	if *timelineOut != "" && res.Timeline != nil {
		write := res.Timeline.WriteJSON
		if strings.HasSuffix(*timelineOut, ".csv") {
			write = res.Timeline.WriteCSV
		}
		if err := writeJSONFile(*timelineOut, write); err != nil {
			lg.Error("writing timeline", "path", *timelineOut, "err", err)
			os.Exit(1)
		}
		fmt.Printf("timeline written    %s (%d epochs of %d cycles)\n",
			*timelineOut, len(res.Timeline.Epochs), res.Timeline.EffectiveInterval)
	}
	if *bench != "" {
		doc := rep.Bench(fmt.Sprintf("laddersim-%s-%s", res.Workload, res.Scheme))
		if err := writeJSONFile(*bench, doc.WriteJSON); err != nil {
			lg.Error("writing bench snapshot", "path", *bench, "err", err)
			os.Exit(1)
		}
		fmt.Printf("bench written       %s\n", *bench)
	}
	if *traceOut != "" {
		if err := writeJSONFile(*traceOut, res.Trace.WriteChromeTrace); err != nil {
			lg.Error("writing trace", "path", *traceOut, "err", err)
			os.Exit(1)
		}
		sum := res.Trace.Summary()
		fmt.Printf("trace written       %s (%d spans of %d transactions, load in Perfetto/chrome://tracing)\n",
			*traceOut, sum.Completed, sum.Seen)
	}
	if *traceSlowest > 0 {
		fmt.Println()
		if err := res.Trace.WriteSlowestDigest(os.Stdout); err != nil {
			lg.Error("writing slowest-write digest", "err", err)
			os.Exit(1)
		}
	}
	// Leave the final state readable on the introspection server until the
	// process exits (typically immediately; useful under a debugger).
	srv.Publish("report", rep)
}

// writeJSONFile streams one of the report writers into a file.
func writeJSONFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
