// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator's public packages for a fixed time,
// checks the outputs, and prints the end-to-end metrics (untraced run)
// or the per-layer metrics and a self-time table (traced run). The last
// line of standard output is the result as one JSON object.
//
//	perfbench --workload paper-grid --seed 1 --seconds 6 --trace 0
//
// See README.md for the workloads, metrics and the layers each one
// should move. run.sh builds and starts it from a checkout's root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"ladder/internal/timing"
)

// workers is the load's width: at most two grid workers and two HTTP
// clients, sized for a two-CPU host.
const workers = 2

// setupRepeats is how many cold set-ups an untraced run makes; setup_s
// is their median.
const setupRepeats = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state, shared by the workloads.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	root     string    // checkout root: the only place the run writes
	tracing  bool      // the traced run: per-layer metrics, spans, probes
	rec      *recorder // where spans go; nil while not recording
	out      io.Writer // human-readable lines, before the JSON line

	tables *timing.TableSet
	pace   *pacer // host pace of the untraced run; nil in the traced run

	mu                sync.Mutex // guards attempted, failed, problems
	attempted, failed int
	problems          []string // failed checks, printed before the result

	metrics map[string]metric
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-grid, service-jobs or degraded-traced")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 6, "measurement window in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run: per-layer metrics and the self-time table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newWorkload, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		root:     root,
		out:      stdout,
		metrics:  map[string]metric{},
	}
	if *traceFlag == 1 {
		b.tracing, b.rec = true, newRecorder()
	}
	fmt.Fprintf(stdout, "# perfbench %s seed=%d seconds=%g trace=%d go=%s gomaxprocs=%d numcpu=%d %s/%s\n",
		b.workload, b.seed, *seconds, *traceFlag, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(),
		runtime.GOOS, runtime.GOARCH)

	ctx := context.Background()
	drive := b.runUntraced
	if b.tracing {
		drive = b.runTraced
	}
	if err := drive(ctx, newWorkload(b)); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	if b.tracing {
		spans := b.rec.snapshot()
		path := filepath.Join(root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# %d spans written to %s\n", len(spans), path)
		writeSelfTable(stdout, b.workload, spans)
	} else {
		b.metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	}
	for _, p := range b.problems {
		fmt.Fprintf(stdout, "# check failed: %s\n", p)
	}
	res := result{
		Correct:   len(b.problems) == 0 && b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no infinity: a latency that includes refused or
			// failed jobs (+Inf) is reported as an unmissable number.
			m.Value = math.Copysign(1e300, m.Value)
			res.Metrics[k] = m
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// set records a metric.
func (b *bench) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

// check counts a failed correctness check against the operation it
// covers.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.mu.Lock()
		b.failed++
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
		b.mu.Unlock()
	}
}

// tally adds operations attempted and failed; safe from any goroutine.
func (b *bench) tally(attempted, failed int) {
	b.mu.Lock()
	b.attempted += attempted
	b.failed += failed
	b.mu.Unlock()
}

// traced reports whether this is the traced run.
func (b *bench) traced() bool { return b.tracing }

// peakRSSMB is the process's peak resident set in MB (getrusage
// ru_maxrss, which Linux reports in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
