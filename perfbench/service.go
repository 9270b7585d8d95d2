package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ladder/internal/service"
	"ladder/internal/sim"
	"ladder/internal/timing"
	"ladder/internal/trace"
)

const (
	// jobInstr is each job's per-core budget: small, so every job's fixed
	// costs (HTTP, JSON, journal fsync, build and collect, report
	// encoding) weigh against little simulation.
	jobInstr = 10_000
	// repeatEvery makes one submission in four repeat an earlier body.
	repeatEvery = 4
	// repeatWindow bounds how far back a repeat reaches, so repeats land
	// in the service's completed-report cache (64 jobs by default).
	repeatWindow = 32
	// reportSampleEvery keeps one report in this many for the
	// byte-identity check; reportChecks is how many of them are checked.
	reportSampleEvery = 97
	reportChecks      = 4
	// serviceMinJobs is a service chunk's minimum job count: more than
	// p99 needs, because the closed loop's tail is noisier than a grid's.
	serviceMinJobs = 1200
	// serviceDeadline stops a session that cannot reach its job count.
	serviceDeadline = 120 * time.Second
	// probeJobs is the session size when another workload's traced run
	// probes the service layer.
	probeJobs = 60
)

// ladderSchemes are the schemes a job pairs with the baseline.
var ladderSchemes = []string{sim.SchemeBasic, sim.SchemeEst, sim.SchemeHybrid}

// server is an in-process service on a loopback listener.
type server struct {
	svc      *service.Service
	http     *http.Server
	base     string
	stateDir string
	served   chan error
}

// startServer builds a durable service on a fresh state directory under
// the checkout and serves it over loopback HTTP.
func startServer(root string, ts *timing.TableSet) (*server, error) {
	parent := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "state-")
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{StateDir: dir, Tables: ts, Jobs: workers})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{svc: svc, http: &http.Server{Handler: svc.Handler()}, base: "http://" + ln.Addr().String(),
		stateDir: dir, served: make(chan error, 1)}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for open handlers and the serve
// goroutine, stops the service and removes its state directory.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.http.Shutdown(ctx) //nolint:errcheck // teardown: a slow handler is cut either way
	<-s.served
	s.svc.Close()
	os.RemoveAll(s.stateDir)
}

// jobOutcome is how one client-side job ended.
type jobOutcome int

const (
	jobDone    jobOutcome = iota
	jobRefused            // 503: queue full or shutting down
	jobFailed             // terminal state other than done
	jobError              // transport or protocol error
)

// jobRecord is one submission as the client saw it.
type jobRecord struct {
	outcome jobOutcome
	latency time.Duration
	// phases: POST round trip, accepted to running, running to done,
	// report fetch. queue and run split the wait only when the event
	// stream showed the job running (sawRunning); a job that finished
	// before its stream opened has all of its wait in queue.
	submit, queue, run, fetch time.Duration
	sawRunning                bool
	seq                       int64 // the request's sequence number
	req                       service.Request
	// executed marks the submission that made the service run the job
	// (outcome accepted or resubmitted, not a cache hit or an attach to
	// an identical running job); only those count cells and instructions.
	executed     bool
	cellMs       []float64          // each cell's wall clock, from the report
	instructions uint64             // instructions the report's cells retired
	ipc          map[string]float64 // average IPC by scheme, from the report
	reportLen    int
	report       []byte // kept for sampled jobs only
	err          error
}

// sessionStats is the closed-loop clients' accounting.
type sessionStats struct {
	mu      sync.Mutex
	records []jobRecord
}

func (s *sessionStats) add(r jobRecord) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records = append(s.records, r)
	return len(s.records)
}

// latenciesMs returns every job's latency in ms; refused, failed and
// errored jobs are +Inf, so they miss any latency limit.
func (s *sessionStats) latenciesMs() []float64 {
	out := make([]float64, len(s.records))
	for i, r := range s.records {
		out[i] = ms(r.latency)
		if r.outcome != jobDone {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// counts returns how many jobs were attempted and how many did not end
// in a report.
func (s *sessionStats) counts() (attempted, failed int) {
	for _, r := range s.records {
		if r.outcome != jobDone {
			failed++
		}
	}
	return len(s.records), failed
}

// speedupJobs is how many leading request numbers hybrid_speedup
// averages over: the LADDER-Hybrid jobs among them are fixed by the seed,
// and every session runs far more jobs than this.
const speedupJobs = 480

// endToEnd derives the end-to-end numbers from a session's records: a
// job is one request, its cells are the report's cells (counted once,
// on the submission that executed them). It also returns hybrid_speedup.
func (s *sessionStats) endToEnd(firstSeq int64, wall time.Duration) (endToEnd, float64) {
	e := endToEnd{jobMs: s.latenciesMs(), wall: wall}
	var speedup float64
	ratios := map[int64]float64{}
	for _, r := range s.records {
		if r.outcome != jobDone {
			continue
		}
		e.jobs++
		if !r.executed {
			continue
		}
		e.cellMs = append(e.cellMs, r.cellMs...)
		e.instructions += r.instructions
		if r.seq-firstSeq < speedupJobs && r.ipc[sim.SchemeHybrid] > 0 && r.ipc[sim.SchemeBaseline] > 0 {
			ratios[r.seq] = r.ipc[sim.SchemeHybrid] / r.ipc[sim.SchemeBaseline]
		}
	}
	// Sum in request order, so the mean is bit-identical for a seed.
	for seq := firstSeq; seq < firstSeq+speedupJobs; seq++ {
		if v, ok := ratios[seq]; ok {
			speedup += v / float64(len(ratios))
		}
	}
	return e, speedup
}

// phaseMs returns one phase's durations in ms over completed jobs, or
// over those whose running event was seen.
func (s *sessionStats) phaseMs(phase func(jobRecord) time.Duration, sawRunning bool) []float64 {
	var out []float64
	for _, r := range s.records {
		if r.outcome == jobDone && (r.sawRunning || !sawRunning) {
			out = append(out, ms(phase(r)))
		}
	}
	return out
}

// requestSource hands out request bodies: new ones numbered in order,
// each a function of the benchmark seed and its number alone, and every
// repeatEvery-th submission of a client a repeat of a recent one.
type requestSource struct {
	mu      sync.Mutex
	seed    int64
	next    int64
	history []numbered
}

// numbered is a request with its sequence number.
type numbered struct {
	seq int64
	req service.Request
}

// newRequest is request number seq: one workload under the baseline and
// one LADDER scheme, with a seed of its own.
func newRequest(seed, seq int64) service.Request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + seq))
	workloads := trace.AllWorkloads()
	return service.Request{
		Workloads: []string{workloads[rng.Intn(len(workloads))]},
		Schemes:   []string{sim.SchemeBaseline, ladderSchemes[rng.Intn(len(ladderSchemes))]},
		Instr:     jobInstr,
		Seed:      seed*1_000_003 + seq,
	}
}

func (q *requestSource) request(rng *rand.Rand, submission int) numbered {
	q.mu.Lock()
	defer q.mu.Unlock()
	if submission%repeatEvery == repeatEvery-1 && len(q.history) > 0 {
		recent := q.history[max(0, len(q.history)-repeatWindow):]
		return recent[rng.Intn(len(recent))]
	}
	n := numbered{q.next, newRequest(q.seed, q.next)}
	q.next++
	q.history = append(q.history, n)
	return n
}

// runSession drives workers closed-loop clients against srv until done
// reports true, and returns their records. Request numbers start at
// firstSeq.
func runSession(ctx context.Context, b *bench, srv *server, firstSeq int64, done func(jobs int, elapsed time.Duration) bool) *sessionStats {
	st := &sessionStats{}
	src := &requestSource{seed: b.seed, next: firstSeq}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers}}
	defer client.CloseIdleConnections()
	start := time.Now()
	var wg sync.WaitGroup
	var stop sync.Once
	stopCh := make(chan struct{})
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.seed*31 + int64(c)))
			for n := 0; ; n++ {
				select {
				case <-stopCh:
					return
				default:
				}
				req := src.request(rng, n)
				group := int64(c)<<32 | int64(n)
				rec := doJob(ctx, b, client, srv.base, req.req, group)
				rec.seq = req.seq
				if n%reportSampleEvery != 0 {
					rec.report = nil
				}
				total := st.add(rec)
				if done(total, time.Since(start)) {
					stop.Do(func() { close(stopCh) })
				}
			}
		}(c)
	}
	wg.Wait()
	// Errored jobs count as failed; the first one's cause is printed.
	for _, r := range st.records {
		if r.outcome == jobError {
			fmt.Fprintf(b.out, "# job error: %v\n", r.err)
			break
		}
	}
	return st
}

// terminal reports whether a job state is final.
func terminal(state string) bool {
	return state == service.StateDone || state == service.StateFailed || state == service.StateCanceled
}

// doJob submits one request, waits on its event stream for the terminal
// event and fetches the report: the latency runs from the POST to the
// last report byte.
func doJob(ctx context.Context, b *bench, client *http.Client, base string, req service.Request, group int64) jobRecord {
	rec := jobRecord{req: req}
	body, err := json.Marshal(req)
	if err != nil {
		rec.outcome, rec.err = jobError, err
		return rec
	}
	root := b.rec.begin("bench.job", group, -1)
	defer b.rec.end(root)
	t0 := time.Now()

	h := b.rec.begin("service.submit", group, root)
	var sub struct {
		ID      string `json:"id"`
		Outcome string `json:"outcome"`
	}
	code, err := call(ctx, client, http.MethodPost, base+"/jobs", body, &sub)
	b.rec.end(h)
	t1 := time.Now()
	rec.submit = t1.Sub(t0)
	switch {
	case err != nil:
		rec.outcome, rec.err = jobError, err
		return rec
	case code == http.StatusServiceUnavailable:
		rec.outcome = jobRefused
		return rec
	case code != http.StatusAccepted && code != http.StatusOK:
		rec.outcome, rec.err = jobError, fmt.Errorf("POST /jobs: status %d", code)
		return rec
	}
	rec.executed = sub.Outcome == "accepted" || sub.Outcome == "resubmitted"

	hq := b.rec.begin("service.queue", group, root)
	hr := -1
	state, running, err := waitTerminal(ctx, client, base+"/jobs/"+sub.ID+"/events", func() {
		b.rec.end(hq)
		hr = b.rec.begin("service.run", group, root)
	})
	t3 := time.Now()
	rec.sawRunning = !running.IsZero()
	if rec.sawRunning {
		b.rec.end(hr)
	} else {
		b.rec.end(hq) // terminal before any running event: all of it was waiting
		running = t3
	}
	rec.queue, rec.run = running.Sub(t1), t3.Sub(running)
	if err != nil {
		rec.outcome, rec.err = jobError, err
		return rec
	}
	if state != service.StateDone {
		rec.outcome = jobFailed
		return rec
	}

	h = b.rec.begin("service.fetch", group, root)
	report, code, err := get(ctx, client, base+"/jobs/"+sub.ID+"/report")
	b.rec.end(h)
	t4 := time.Now()
	rec.fetch, rec.latency = t4.Sub(t3), t4.Sub(t0)
	if err != nil || code != http.StatusOK {
		rec.outcome, rec.err = jobError, fmt.Errorf("GET report: status %d: %v", code, err)
		return rec
	}
	rec.reportLen, rec.report = len(report), report
	if rec.executed {
		var doc struct {
			Cells []struct {
				Scheme       string  `json:"scheme"`
				AvgIPC       float64 `json:"avg_ipc"`
				Instructions uint64  `json:"instructions_retired"`
				WallClockMS  float64 `json:"wall_clock_ms"`
			} `json:"cells"`
		}
		if err := json.Unmarshal(report, &doc); err != nil {
			rec.outcome, rec.err = jobError, fmt.Errorf("decoding report: %w", err)
			return rec
		}
		rec.ipc = map[string]float64{}
		for _, c := range doc.Cells {
			rec.cellMs = append(rec.cellMs, c.WallClockMS)
			rec.instructions += c.Instructions
			rec.ipc[c.Scheme] = c.AvgIPC
		}
	}
	return rec
}

// call sends one JSON request and decodes the JSON response into out.
func call(ctx context.Context, client *http.Client, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// get fetches a body whole.
func get(ctx context.Context, client *http.Client, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// waitTerminal reads a job's server-sent events until a terminal state
// arrives, calling onRunning when the job is first seen running.
func waitTerminal(ctx context.Context, client *http.Client, url string, onRunning func()) (state string, running time.Time, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", running, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", running, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", running, fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", running, fmt.Errorf("decoding event: %w", err)
		}
		if ev.State == service.StateRunning && running.IsZero() {
			running = time.Now()
			onRunning()
		}
		if terminal(ev.State) {
			// Drain the rest so the connection returns to the pool.
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // the state is already known
			return ev.State, running, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", running, err
	}
	return "", running, errors.New("event stream ended without a terminal state")
}

// serviceJobs is the service-jobs workload: two closed-loop clients
// against a durable in-process service, until the window is spent and
// at least serviceMinJobs jobs ran.
type serviceJobs struct {
	b   *bench
	srv *server
	st  *sessionStats // the latest chunk's session
	e   endToEnd      // and its end-to-end numbers
	hs  float64       // the latest chunk's hybrid_speedup
}

func newServiceJobs(b *bench) workload { return &serviceJobs{b: b} }

func (w *serviceJobs) construct(ts *timing.TableSet) (func(), error) {
	srv, err := startServer(w.b.root, ts)
	if err != nil {
		return nil, err
	}
	w.srv = srv
	return srv.close, nil
}

// measure runs one session. Each chunk of pass 0 sends the same request
// sequence to a fresh service; the traced run's later passes, on the
// same service, draw new request numbers, so they do not hit the
// earlier passes' cached reports.
func (w *serviceJobs) measure(ctx context.Context, window time.Duration, pass int) (endToEnd, error) {
	firstSeq := int64(pass) << 40
	start := time.Now()
	st := runSession(ctx, w.b, w.srv, firstSeq, func(jobs int, elapsed time.Duration) bool {
		return (elapsed >= window && jobs >= serviceMinJobs) || elapsed >= serviceDeadline
	})
	wall := time.Since(start)
	w.b.tally(st.counts())
	w.st = st
	w.e, w.hs = st.endToEnd(firstSeq, wall)
	return w.e, nil
}

func (w *serviceJobs) speedup() float64 { return w.hs }

func (w *serviceJobs) finish(ctx context.Context) error {
	counts, err := checkReports(ctx, w.b, w.st)
	if err != nil {
		return err
	}
	if w.b.traced() {
		if err := publishSession(w.b, w.srv, w.st); err != nil {
			return err
		}
		counts.publish(w.b)
	}
	return nil
}

// publishSession sets the service layer's per-layer metrics from a
// session's records and the service's /stats document.
func publishSession(b *bench, srv *server, st *sessionStats) error {
	// Queue and run are split only on jobs whose running event was seen:
	// the jobs that executed while their client watched.
	for _, p := range []struct {
		name       string
		phase      func(jobRecord) time.Duration
		sawRunning bool
	}{
		{"service.submit_ms_p50", func(r jobRecord) time.Duration { return r.submit }, false},
		{"service.queue_ms_p50", func(r jobRecord) time.Duration { return r.queue }, true},
		{"service.run_ms_p50", func(r jobRecord) time.Duration { return r.run }, true},
		{"service.fetch_ms_p50", func(r jobRecord) time.Duration { return r.fetch }, false},
	} {
		xs := st.phaseMs(p.phase, p.sawRunning)
		if len(xs) == 0 {
			return fmt.Errorf("%s: no job qualified", p.name)
		}
		b.set(p.name, median(xs), "ms")
	}
	b.set("service.jobs_seen_running", float64(len(st.phaseMs(func(jobRecord) time.Duration { return 0 }, true))), "count")
	var sizes []float64
	for _, r := range st.records {
		if r.outcome == jobDone {
			sizes = append(sizes, float64(r.reportLen))
		}
	}
	b.set("service.report_bytes", median(sizes), "bytes")
	stats := srv.svc.StatsSnapshot()
	submissions := stats.Submitted + stats.CacheHits + stats.Deduped + stats.Rejected
	b.set("service.cache_hit_ratio", ratio(float64(stats.CacheHits), float64(submissions)), "ratio")
	b.set("service.submissions", float64(submissions), "count")
	b.set("service.rejected", float64(stats.Rejected), "count")
	return nil
}

// checkReports reruns a sample of the session's requests in-process,
// outside the timed region, and checks that each served report equals
// sim.NewGridReport of the same request once both are stripped of
// host-timing fields. The reruns' results are returned as layer counts.
func checkReports(ctx context.Context, b *bench, st *sessionStats) (*layerCounts, error) {
	counts := &layerCounts{}
	checked := 0
	for _, r := range st.records {
		if r.report == nil || !r.executed || checked == reportChecks {
			continue
		}
		checked++
		b.tally(1, 0)
		var served sim.GridReport
		dec := json.NewDecoder(bytes.NewReader(r.report))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&served); err != nil {
			b.check(false, "job %v: decoding served report: %v", r.req, err)
			continue
		}
		// The served bytes must survive the decode unchanged, so that the
		// comparison below covers every byte the client received.
		again, err := json.MarshalIndent(&served, "", "  ")
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(again, r.report) {
			b.check(false, "job %v: served report does not re-encode to the bytes served", r.req)
			continue
		}
		want, err := json.MarshalIndent(served.StripVolatile(), "", "  ")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		g, err := sim.RunGridCtx(ctx, sim.Options{Instr: r.req.Instr, Seed: r.req.Seed, Workloads: r.req.Workloads,
			Tables: b.tables, Jobs: workers}, r.req.Schemes)
		if err != nil {
			b.check(false, "job %v: in-process rerun: %v", r.req, err)
			continue
		}
		host := time.Since(start)
		gr, err := sim.NewGridReport(g)
		if err != nil {
			return nil, err
		}
		got, err := json.MarshalIndent(gr.StripVolatile(), "", "  ")
		if err != nil {
			return nil, err
		}
		b.check(bytes.Equal(got, want), "job %v: served report differs from the in-process grid report", r.req)
		for _, w := range g.Workloads {
			for _, s := range g.Schemes {
				counts.add(g.Results[w][s], host/time.Duration(len(g.Workloads)*len(g.Schemes)))
			}
		}
	}
	b.check(checked > 0, "no served report was sampled for the byte-identity check")
	return counts, nil
}

// probeService runs a short session against a service on the run's
// tables, for the traced run of a workload that does not use it, and
// checks its sampled reports against in-process grid reports.
func probeService(ctx context.Context, b *bench) error {
	srv, err := startServer(b.root, b.tables)
	if err != nil {
		return err
	}
	defer srv.close()
	st := runSession(ctx, b, srv, 0, func(jobs int, _ time.Duration) bool { return jobs >= probeJobs })
	attempted, failed := st.counts()
	b.check(failed == 0, "service probe: %d of %d jobs were refused or failed", failed, attempted)
	if _, err := checkReports(ctx, b, st); err != nil {
		return err
	}
	return publishSession(b, srv, st)
}
