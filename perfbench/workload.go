package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"time"

	"ladder/internal/circuit"
	"ladder/internal/timing"
)

// workload is one benchmark workload.
type workload interface {
	// construct builds the workload on freshly generated timing tables,
	// inside the timed set-up, and returns its teardown (nil if none).
	construct(ts *timing.TableSet) (teardown func(), err error)
	// measure runs one measurement chunk of at least window host time and
	// at least the workload's minimum of jobs. Chunks of the same pass
	// number run identical inputs; each pass number draws its own.
	measure(ctx context.Context, window time.Duration, pass int) (endToEnd, error)
	// finish runs the correctness reruns, outside the timed region, and
	// on the traced run sets the workload's per-layer metrics.
	finish(ctx context.Context) error
	// speedup is hybrid_speedup over the inputs measured.
	speedup() float64
}

var workloads = map[string]func(*bench) workload{
	"paper-grid":      newPaperGrid,
	"service-jobs":    newServiceJobs,
	"degraded-traced": newDegraded,
}

// runUntraced interleaves the cold set-ups with the measurement: each of
// the setupRepeats set-ups, timed from the table generation until the
// first request could be issued, is followed by one measurement chunk on
// the instance it built, so the run samples the host's speed across its
// whole length. setup_s is the median set-up; the other end-to-end
// metrics pool the chunks. Each set-up and each chunk is scaled by the
// host slowdown measured over it (pace.go). Tables come from
// timing.NewTableSet called directly, so LADDER_TABLE_CACHE never
// applies.
func (b *bench) runUntraced(ctx context.Context, w workload) error {
	pace, err := newPacer()
	if err != nil {
		return err
	}
	b.pace = pace
	var setups, rawSetups []float64
	var chunks []endToEnd
	for i := 0; i < setupRepeats; i++ {
		pace.reading()
		start := time.Now()
		ts, err := timing.NewTableSet(circuit.DefaultParams())
		if err != nil {
			return fmt.Errorf("generating timing tables: %w", err)
		}
		teardown, err := w.construct(ts)
		if err != nil {
			return err
		}
		raw := time.Since(start).Seconds()
		pace.reading()
		slow := pace.setupSlowdown()
		fmt.Fprintf(b.out, "# set-up: %.4f s, host slowdown %.4f\n", raw, slow)
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw/slow)
		b.tables = ts
		if i == 0 {
			// The first chunk after start-up runs slower (the heap grows,
			// memory is touched for the first time), so one chunk of inputs
			// of its own runs untimed first.
			_, err = w.measure(ctx, 0, setupRepeats)
			pace.chunkSlowdown()
		}
		var e endToEnd
		if err == nil {
			e, err = w.measure(ctx, b.seconds/setupRepeats, i)
		}
		pace.burst()
		e.slowdown = pace.chunkSlowdown()
		if teardown != nil {
			teardown()
		}
		if err != nil {
			return err
		}
		chunks = append(chunks, e)
	}
	fmt.Fprintf(b.out, "# setup_s: raw median %.4f, scaled median %.4f\n", median(rawSetups), median(setups))
	b.set("setup_s", median(setups), "s")
	if err := publishChunks(b, chunks, w.speedup()); err != nil {
		return err
	}
	return w.finish(ctx)
}

// runTraced sets up once, through NewTableSet's public steps, then
// measures three chunks: an unrecorded warm-up (the first chunk after
// set-up runs slower, on a heap still growing), an unrecorded baseline
// over half the window, and a recorded chunk over the window under the
// CPU profiler. It reports how much slower the recorded chunk's median
// job was than the baseline's as bench.trace_overhead_pct, prints the
// CPU profile by layer, and ends with the layer probes.
func (b *bench) runTraced(ctx context.Context, w workload) error {
	teardown, err := b.tracedSetup(w.construct)
	if err != nil {
		return err
	}
	if teardown != nil {
		defer teardown()
	}
	rec := b.rec
	b.rec = nil
	_, err = w.measure(ctx, b.seconds/setupRepeats, 0)
	if err != nil {
		return err
	}
	base, err := w.measure(ctx, b.seconds/2, 1)
	b.rec = rec
	if err != nil {
		return err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("starting the CPU profile: %w", err)
	}
	traced, err := w.measure(ctx, b.seconds, 2)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	if _, err := base.summarize(b.out, "baseline chunk, unrecorded"); err != nil {
		return err
	}
	if _, err := traced.summarize(b.out, "recorded chunk"); err != nil {
		return err
	}
	b.set("bench.trace_overhead_pct", 100*(ratio(median(traced.jobMs), median(base.jobMs))-1), "%")
	byLayer, err := cpuByLayer(prof.Bytes())
	if err != nil {
		return err
	}
	writeCPUTable(b.out, b, byLayer)
	if err := w.finish(ctx); err != nil {
		return err
	}
	return runProbes(ctx, b)
}

// endToEnd is one measurement chunk's raw numbers. Each workload fills
// it from its own operations; README.md defines cells and jobs per
// workload.
type endToEnd struct {
	cellMs       []float64     // host ms per simulated (workload, scheme) cell
	jobMs        []float64     // host ms per job; +Inf for refused or failed jobs
	jobs         int           // jobs that produced their result
	instructions uint64        // simulated instructions retired
	wall         time.Duration // host time of the chunk
	slowdown     float64       // host slowdown over the chunk (pace.go)
}

// chunkSummary is a chunk's end-to-end statistics, in metric order.
type chunkSummary [3]float64

var chunkMetrics = [3]struct{ name, unit string }{
	{"sim_minstr_per_s", "Minstr/s"},
	{"cell_ms_p50", "ms"},
	{"cell_ms_p90", "ms"},
}

// summarize computes the chunk's statistics and prints them with its job
// numbers on a line labelled label. Every tail percentile must have ten samples beyond it; job
// p99 is printed only where it has them.
func (e endToEnd) summarize(out io.Writer, label string) (chunkSummary, error) {
	var s chunkSummary
	s[0] = float64(e.instructions) / 1e6 / e.wall.Seconds()
	var err error
	if s[1], err = percentile(e.cellMs, 0.5); err != nil {
		return s, err
	}
	if s[2], err = percentile(e.cellMs, 0.9); err != nil {
		return s, err
	}
	jobP50, err := percentile(e.jobMs, 0.5)
	if err != nil {
		return s, err
	}
	jobP99 := "-"
	if v, err := percentile(e.jobMs, 0.99); err == nil {
		jobP99 = fmt.Sprintf("%.3f", v)
	}
	fmt.Fprintf(out, "# %s: cells=%d jobs=%d/%d wall_s=%.3f instructions=%d minstr_per_s=%.3f cell_ms p50=%.3f p90=%.3f job_ms p50=%.3f p99=%s jobs_per_s=%.2f\n",
		label, len(e.cellMs), e.jobs, len(e.jobMs), e.wall.Seconds(), e.instructions, s[0], s[1], s[2], jobP50, jobP99,
		float64(e.jobs)/e.wall.Seconds())
	return s, nil
}

// scaled returns the chunk with its host times divided by its slowdown.
func (e endToEnd) scaled() endToEnd {
	div := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x / e.slowdown
		}
		return out
	}
	e.cellMs, e.jobMs = div(e.cellMs), div(e.jobMs)
	e.wall = time.Duration(float64(e.wall) / e.slowdown)
	return e
}

// pool merges chunks into one sample set for the whole run.
func pool(chunks []endToEnd) endToEnd {
	var all endToEnd
	for _, e := range chunks {
		all.cellMs = append(all.cellMs, e.cellMs...)
		all.jobMs = append(all.jobMs, e.jobMs...)
		all.jobs += e.jobs
		all.instructions += e.instructions
		all.wall += e.wall
	}
	return all
}

// publishChunks prints each chunk's statistics, raw, and sets each
// end-to-end metric from the pooled chunks, each scaled by its own host
// slowdown. It also sets hybrid_speedup.
func publishChunks(b *bench, chunks []endToEnd, speedup float64) error {
	var scaled []endToEnd
	for _, e := range chunks {
		if _, err := e.summarize(b.out, fmt.Sprintf("chunk, host slowdown %.4f", e.slowdown)); err != nil {
			return err
		}
		scaled = append(scaled, e.scaled())
	}
	if _, err := pool(chunks).summarize(b.out, "run, raw"); err != nil {
		return err
	}
	s, err := pool(scaled).summarize(b.out, "run, scaled")
	if err != nil {
		return err
	}
	for i, m := range chunkMetrics {
		b.set(m.name, s[i], m.unit)
	}
	fmt.Fprintf(b.out, "# hybrid_speedup=%.6f (simulated: LADDER-Hybrid IPC normalized to baseline)\n", speedup)
	b.set("hybrid_speedup", speedup, "x")
	return nil
}
