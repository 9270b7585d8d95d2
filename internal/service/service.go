// Package service turns the simulator into a long-running
// simulation-as-a-service endpoint: an HTTP job queue that accepts
// parameterized experiment requests (the JSON-resolved form of
// sim.Options plus a scheme list), executes them as parallel grids on a
// warm engine, and serves the resulting grid reports.
//
// The service is built for many clients submitting overlapping sweeps
// against one process:
//
//   - Deduplication. Every request normalizes (defaults made explicit,
//     scheme spellings canonicalized) and content-hashes; the hash is
//     the job ID. A submission whose ID matches a queued or running job
//     attaches to it instead of enqueueing a second execution, and one
//     matching a completed job is answered from the report cache.
//   - Caching. Completed reports are kept as marshaled bytes in a
//     bounded LRU, so repeated submissions of a finished configuration
//     are served byte-identically without re-simulating. Reports are
//     deterministic for a fixed seed (see sim.RunGridCtx), so a cached
//     report is exactly what a re-run would produce, wall-clock fields
//     aside.
//   - Backpressure. The pending queue is bounded; a submission that
//     finds it full is rejected with 503 and counted, never silently
//     dropped or unboundedly buffered.
//   - Durability. With Config.StateDir set, every job transition
//     atomically replaces the job's fsync'd record and every completed
//     report lands as a blob beside it (see Store). A restarted — or
//     crashed and rebooted — service recovers them: completed reports are
//     served byte-identically, jobs that were queued re-queue, and jobs
//     that died mid-run come back as failed-by-crash (resubmitting one
//     re-runs it).
//   - Self-healing. Each job runs under an optional deadline
//     (Config.JobTimeout) and a watchdog (Config.StallTimeout) that
//     cancels jobs whose grid stops making progress; a job wedged hard
//     enough to ignore cancellation is abandoned so the executor moves
//     on. A panicking scheme fails only its own job — the panic is
//     caught in the grid worker (sim.PanicError), counted, and reported
//     in the job's error with its stack.
//   - Observability. Queue depth, running/deduped/rejected/cache-hit
//     counts are kept in an internal metrics.Registry (names in
//     docs/METRICS.md) and exposed through GET /stats and the
//     introspection server's function-backed documents.
//
// Jobs execute one at a time in submission order on a single executor
// goroutine — within a job, sim.RunGridCtx fans cells out over its own
// worker pool — so the bounded queue is the only admission control
// needed. Progress streams to subscribers over Server-Sent Events from
// the grid's serialized progress callbacks. The full API reference,
// with request/response schemas and a curl walkthrough, is
// docs/SERVICE.md.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ladder/internal/chaos"
	"ladder/internal/introspect"
	"ladder/internal/jsonenc"
	"ladder/internal/logging"
	"ladder/internal/metrics"
	"ladder/internal/sim"
	"ladder/internal/timing"
)

// Job states, as reported in status documents and SSE events.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Config parameterizes a Service. The zero value selects the defaults.
type Config struct {
	// QueueDepth bounds the number of jobs waiting to execute (running
	// and completed jobs do not count). A submission that finds the
	// queue full is rejected with 503. 0 = DefaultQueueDepth.
	QueueDepth int
	// CacheSize bounds the number of completed (done, failed or
	// canceled) jobs retained, LRU by completion/last-hit order. An
	// evicted job's report is forgotten; resubmitting its configuration
	// re-simulates. 0 = DefaultCacheSize.
	CacheSize int
	// Jobs is the per-grid worker-pool width forwarded to
	// sim.Options.Jobs (0 = one worker per CPU).
	Jobs int
	// MaxInstr caps the per-core instruction budget a request may ask
	// for, bounding the cost of any one job. 0 = DefaultMaxInstr. There
	// is no uncapped setting; a deployment that wants none sets a cap
	// above any budget it expects.
	MaxInstr uint64
	// Tables overrides the timing tables every job simulates with
	// (nil = the default 512×512 set, decoded from embedded data in
	// milliseconds). A test seam for jobs on other tables.
	Tables *timing.TableSet
	// SSEKeepalive is the comment-frame cadence on idle event streams —
	// proxies reap silent connections, so a queued job's subscribers get
	// keepalive comments while nothing happens. 0 = 15s
	// (introspect.DefaultSSEKeepalive); negative disables keepalives
	// (test seam).
	SSEKeepalive time.Duration
	// Logger receives job-lifecycle records (submitted, started,
	// finished). Nil discards them; serve mode wires a JSON logger.
	Logger *slog.Logger
	// StateDir, when set, makes the service durable: each retained job
	// keeps one record, <StateDir>/<id>.job, replaced on every transition,
	// completed reports persist beside it as <id>.json, both fsync'd, and
	// New recovers them on boot (see Store). Empty = in-memory only;
	// nothing survives a restart.
	StateDir string
	// JobTimeout bounds any one job's wall-clock execution; a job still
	// running at the deadline is canceled and fails with a structured
	// deadline error. 0 = no deadline.
	JobTimeout time.Duration
	// StallTimeout arms the per-job watchdog: a running job whose grid
	// delivers no progress heartbeat (cell completions or periodic
	// in-cell progress) for this long is canceled with a structured
	// stall error and counted in service.watchdog.kills. 0 = disabled.
	StallTimeout time.Duration
}

// Defaults of the Config fields left 0.
const (
	DefaultQueueDepth = 16
	DefaultCacheSize  = 64
	DefaultMaxInstr   = 10_000_000
)

// abandonGraceDefault is how long the supervisor waits, after canceling
// a job, for its grid goroutine to unwind before abandoning it (marking
// the job failed and letting the executor move on). Cancellation is
// polled between engine steps, so a healthy grid unwinds in
// microseconds; only a truly wedged cell hits the grace.
const abandonGraceDefault = 3 * time.Second

// Validate checks every range Config holds, so that New fails up front
// rather than a negative value failing later: the queue, cache and
// timeout settings take 0 for their default or "off" and reject
// negatives, and Jobs is checked as the sim.Options.Jobs it is
// forwarded to.
func (c Config) Validate() error {
	var errs []error
	for _, f := range []struct {
		name     string
		zero     any
		negative bool
		v        any
	}{
		{"QueueDepth", DefaultQueueDepth, c.QueueDepth < 0, c.QueueDepth},
		{"CacheSize", DefaultCacheSize, c.CacheSize < 0, c.CacheSize},
		{"JobTimeout", "no deadline", c.JobTimeout < 0, c.JobTimeout},
		{"StallTimeout", "no watchdog", c.StallTimeout < 0, c.StallTimeout},
	} {
		if f.negative {
			errs = append(errs, fmt.Errorf("service: Config.%s must be >= 0 (0 = %v), got %v", f.name, f.zero, f.v))
		}
	}
	return errors.Join(append(errs, sim.Options{Jobs: c.Jobs}.Validate())...)
}

func (c *Config) applyDefaults() {
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.MaxInstr == 0 {
		c.MaxInstr = DefaultMaxInstr
	}
	if c.Logger == nil {
		c.Logger = logging.Discard()
	}
}

// job is the service-side record of one submitted configuration.
type job struct {
	id    string
	req   Request
	state string
	// done/total track grid-cell completion while running.
	done, total int
	errMsg      string
	report      []byte // marshaled GridReport, state done only
	dedups      uint64 // submissions that attached to this job
	// crashed marks a failure caused by the process (crash, watchdog
	// abandonment) rather than the request: resubmitting re-runs it
	// instead of serving the cached failure.
	crashed bool
	cancel  context.CancelFunc
	// events streams the job's status documents; its event IDs are the
	// job's event sequence. It closes at the terminal status, and a
	// resubmit opens a fresh one.
	events    *introspect.Broker
	submitted time.Time
}

// Service is the job queue. Create with New, mount Handler on a
// listener (or the introspection server), and Close on shutdown.
type Service struct {
	cfg   Config
	mux   *http.ServeMux
	store *Store // nil when Config.StateDir is empty (all methods nil-safe)
	// abandonGrace is how long a canceled-but-unresponsive job may hold
	// the executor before being abandoned (test seam; defaults to
	// abandonGraceDefault in New).
	abandonGrace time.Duration

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // submission order, for GET /jobs
	queue   chan *job
	lru     []string // completed job IDs, least recently used first
	closed  bool
	running int

	// Counters mirrored into reg; all access is under mu (the registry's
	// instruments are deliberately not atomic).
	reg *metrics.Registry

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
}

// New starts a service: the executor goroutine runs until Close. With
// Config.StateDir set, the state directory is opened (created if
// missing) and its jobs recovered before the executor starts, so
// recovered reports are servable and re-queued jobs execute from the
// first moment the handler is mounted. New fails on a Config that
// Validate rejects and when the state dir cannot be opened.
func New(cfg Config) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:          cfg,
		abandonGrace: abandonGraceDefault,
		jobs:         make(map[string]*job),
		queue:        make(chan *job, cfg.QueueDepth),
		reg:          metrics.NewRegistry(),
		baseCtx:      ctx,
		stop:         cancel,
	}
	if cfg.StateDir != "" {
		store, rec, err := OpenStore(cfg.StateDir)
		if err != nil {
			cancel()
			return nil, err
		}
		s.store = store
		s.restore(rec)
	}
	s.routes()
	s.wg.Add(1)
	go s.executor()
	return s, nil
}

// restore installs one boot's recovered jobs as they were: terminal jobs
// enter the completed LRU in recovery order (least recently changed
// evicting first), queued jobs re-enter the pending queue. Recovery is
// counted only in its own counters; completed/failed/canceled count this
// boot's work. Runs before the executor starts, so it needs no lock.
func (s *Service) restore(rec *Recovery) {
	for _, rj := range rec.Jobs {
		j := &job{
			id: rj.ID, req: rj.Req, state: rj.State, errMsg: rj.ErrMsg,
			report: rj.Report, crashed: rj.Crashed, submitted: time.Now(),
		}
		if j.state == StateQueued {
			select {
			case s.queue <- j:
			default:
				// More recovered queued jobs than the queue holds (the cap
				// shrank across the restart): fail the overflow as crashed,
				// on disk too, so it stays visible and resubmittable rather
				// than silently re-queuing on the next boot.
				j.state, j.errMsg, j.crashed = StateFailed, "failed by crash: recovered queue overflowed the configured queue depth", true
				s.store.Finished(j.req, j.state, j.errMsg, nil, true)
				rec.Requeued--
				rec.FailedByCrash++
			}
		}
		s.openEventsLocked(j)
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if j.state != StateQueued {
			j.events.Close()
			s.lru = append(s.lru, j.id)
		}
		if j.state == StateDone {
			s.reg.Counter("service.recovered.reports").Inc()
		}
	}
	s.trimLRULocked()
	s.reg.Counter("service.recovered.requeued").Add(uint64(rec.Requeued))
	s.reg.Counter("service.recovered.failed_by_crash").Add(uint64(rec.FailedByCrash))
	s.reg.Counter("service.store.corrupt_records").Add(uint64(rec.CorruptRecords))
	if len(rec.Jobs) > 0 || rec.CorruptRecords > 0 {
		s.cfg.Logger.Info("state recovered",
			"dir", s.cfg.StateDir, "jobs", len(rec.Jobs),
			"requeued", rec.Requeued, "failed_by_crash", rec.FailedByCrash,
			"corrupt_records", rec.CorruptRecords)
	}
}

// Handler returns the service's HTTP API (see docs/SERVICE.md): POST
// /jobs, GET /jobs, GET /jobs/{id}, GET /jobs/{id}/report, GET
// /jobs/{id}/events, DELETE /jobs/{id}, GET /stats, GET /healthz.
func (s *Service) Handler() http.Handler { return s.mux }

// Routes lists the top-level patterns Handler serves, for mounting the
// service onto a shared mux (introspect.Server.Handle).
func (s *Service) Routes() []string {
	return []string{"/jobs", "/jobs/", "/stats", "/healthz", "/readyz", "/metrics/prom"}
}

// Close stops the executor and cancels any running job. Queued jobs are
// marked canceled in memory but deliberately NOT recorded as canceled
// — their accepted records survive, so a durable service re-queues them
// on the next boot. Close blocks until the executor goroutine exits.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
}

// MetricsSnapshot freezes the service's metrics registry — the
// queue/cache/backpressure counters cataloged in docs/METRICS.md. Safe
// for concurrent use; the introspection server publishes it as a
// function-backed document.
func (s *Service) MetricsSnapshot() metrics.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

// snapshotLocked refreshes the queue and running gauges and freezes the
// registry. Callers hold s.mu.
func (s *Service) snapshotLocked() metrics.Snapshot {
	s.reg.Gauge("service.queue.depth").Observe(float64(len(s.queue)))
	s.reg.Gauge("service.jobs.running").Observe(float64(s.running))
	return s.reg.Snapshot()
}

// Stats is the GET /stats document.
type Stats struct {
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	Running    int    `json:"running"`
	Jobs       int    `json:"jobs"`
	Cached     int    `json:"cached"`
	Submitted  uint64 `json:"submitted"`
	Deduped    uint64 `json:"deduped"`
	Rejected   uint64 `json:"rejected"`
	CacheHits  uint64 `json:"cache_hits"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	Canceled   uint64 `json:"canceled"`
	Evictions  uint64 `json:"cache_evictions"`
	// Robustness and durability counters (0 unless the corresponding
	// feature is configured/exercised; see docs/METRICS.md).
	Resubmitted        uint64 `json:"resubmitted"`
	WatchdogKills      uint64 `json:"watchdog_kills"`
	DeadlineExceeded   uint64 `json:"deadline_exceeded"`
	Panics             uint64 `json:"panics"`
	Abandoned          uint64 `json:"abandoned"`
	RecoveredReports   uint64 `json:"recovered_reports"`
	RecoveredRequeued  uint64 `json:"recovered_requeued"`
	FailedByCrash      uint64 `json:"failed_by_crash"`
	StoreWriteErrors   uint64 `json:"store_write_errors"`
	StoreCorruptRecs   uint64 `json:"store_corrupt_records"`
	StateDir           string `json:"state_dir,omitempty"`
	DurabilityDegraded bool   `json:"durability_degraded,omitempty"`
}

// StatsSnapshot builds the GET /stats document. Safe for concurrent use.
func (s *Service) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := func(name string) uint64 { return s.reg.Counter(name).Value() }
	return Stats{
		QueueDepth: len(s.queue),
		QueueCap:   s.cfg.QueueDepth,
		Running:    s.running,
		Jobs:       len(s.order),
		Cached:     len(s.lru),
		Submitted:  c("service.jobs.submitted"),
		Deduped:    c("service.jobs.deduped"),
		Rejected:   c("service.jobs.rejected"),
		CacheHits:  c("service.cache.hits"),
		Completed:  c("service.jobs.completed"),
		Failed:     c("service.jobs.failed"),
		Canceled:   c("service.jobs.canceled"),
		Evictions:  c("service.cache.evictions"),

		Resubmitted:        c("service.jobs.resubmitted"),
		WatchdogKills:      c("service.watchdog.kills"),
		DeadlineExceeded:   c("service.jobs.deadline_exceeded"),
		Panics:             c("service.jobs.panics"),
		Abandoned:          c("service.jobs.abandoned"),
		RecoveredReports:   c("service.recovered.reports"),
		RecoveredRequeued:  c("service.recovered.requeued"),
		FailedByCrash:      c("service.recovered.failed_by_crash"),
		StoreWriteErrors:   s.store.WriteErrs(),
		StoreCorruptRecs:   c("service.store.corrupt_records"),
		StateDir:           s.cfg.StateDir,
		DurabilityDegraded: s.store.Err() != nil,
	}
}

// submitOutcome tells the HTTP layer how a submission resolved.
type submitOutcome int

const (
	outcomeNew submitOutcome = iota
	outcomeDeduped
	outcomeCached
	outcomeResubmitted
	outcomeRejected
	outcomeClosed
)

// submit resolves a normalized request to a job: a fresh enqueue, an
// attach to an identical in-flight job, or a cache hit on a completed
// one. Canceled and crashed (failed-by-crash, watchdog-abandoned) jobs
// are retryable: resubmitting one re-enqueues it instead of serving the
// stale terminal state. Deterministic failures stay cached — the same
// request would fail the same way. Rejection (full queue, closing
// service) returns a nil job.
func (s *Service) submit(req Request) (*job, submitOutcome) {
	id := req.id()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, outcomeClosed
	}
	if j, ok := s.jobs[id]; ok {
		switch {
		case j.state == StateQueued || j.state == StateRunning:
			j.dedups++
			j.publishLocked()
			s.reg.Counter("service.jobs.deduped").Inc()
			return j, outcomeDeduped
		case j.state == StateCanceled || (j.state == StateFailed && j.crashed):
			return s.resubmitLocked(j)
		default:
			// Completed (done, or deterministically failed): serve from
			// cache and refresh its LRU position.
			s.reg.Counter("service.cache.hits").Inc()
			s.touchLocked(id)
			return j, outcomeCached
		}
	}
	j := &job{id: id, req: req, state: StateQueued, submitted: time.Now()}
	select {
	case s.queue <- j:
	default:
		s.reg.Counter("service.jobs.rejected").Inc()
		return nil, outcomeRejected
	}
	s.openEventsLocked(j)
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.reg.Counter("service.jobs.submitted").Inc()
	s.reg.Gauge("service.queue.depth").Observe(float64(len(s.queue)))
	s.store.Accepted(req)
	s.cfg.Logger.Info("job queued", "job", id, "queue_depth", len(s.queue))
	return j, outcomeNew
}

// resubmitLocked returns a canceled or crashed job to the pending
// queue, resetting its terminal state. The job keeps its identity; its
// new lifecycle streams on a fresh event stream, which a client resuming
// with an ID from the old one joins at the current status. Callers hold
// s.mu.
func (s *Service) resubmitLocked(j *job) (*job, submitOutcome) {
	select {
	case s.queue <- j:
	default:
		s.reg.Counter("service.jobs.rejected").Inc()
		return nil, outcomeRejected
	}
	s.dropLRULocked(j.id)
	j.state = StateQueued
	j.errMsg = ""
	j.report = nil
	j.done, j.total = 0, 0
	j.crashed = false
	j.submitted = time.Now()
	s.openEventsLocked(j)
	s.reg.Counter("service.jobs.resubmitted").Inc()
	s.store.Accepted(j.req)
	s.cfg.Logger.Info("job resubmitted", "job", j.id, "queue_depth", len(s.queue))
	return j, outcomeResubmitted
}

// dropLRULocked removes a completed job from the LRU without evicting
// it (it is returning to the queue). Callers hold s.mu.
func (s *Service) dropLRULocked(id string) {
	for i, v := range s.lru {
		if v == id {
			s.lru = append(s.lru[:i], s.lru[i+1:]...)
			return
		}
	}
}

// cancelJob cancels a job by ID. Queued jobs transition directly to
// canceled (the executor skips them); running jobs get their context
// canceled and transition when the grid unwinds. Completed jobs are
// left as they are (false, "already finished").
func (s *Service) cancelJob(id string) (ok bool, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, exists := s.jobs[id]
	if !exists {
		return false, "unknown job"
	}
	switch j.state {
	case StateQueued:
		// The record must be replaced before a resubmit can re-accept the
		// job, so the store call stays under s.mu; the store never takes
		// it, so this cannot deadlock.
		s.store.Finished(j.req, StateCanceled, "canceled before execution", nil, false)
		s.finishLocked(j, StateCanceled, "canceled before execution", nil, false)
		return true, ""
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
		return true, ""
	default:
		return false, "already finished"
	}
}

// executor drains the queue one job at a time, in submission order.
func (s *Service) executor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			s.drainOnClose()
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// drainOnClose marks every still-queued job canceled after Close. The
// cancellations are deliberately not recorded: the jobs' accepted
// records survive, so a durable service re-queues them on the next boot
// instead of making clients resubmit.
func (s *Service) drainOnClose() {
	for {
		select {
		case j := <-s.queue:
			s.mu.Lock()
			if j.state == StateQueued {
				s.finishLocked(j, StateCanceled, "service shut down", nil, false)
			}
			s.mu.Unlock()
		default:
			return
		}
	}
}

// Structured cancellation causes, attached via context.WithCancelCause
// so the grid's error chain tells the supervisor (and the client) WHY a
// job stopped: client cancel, deadline, or watchdog stall.
var (
	errClientCancel  = errors.New("canceled by client")
	errJobDeadline   = errors.New("job deadline exceeded")
	errWatchdogStall = errors.New("watchdog: job stalled")
)

// jobOutcome is what the grid goroutine hands back to the supervisor.
type jobOutcome struct {
	grid *sim.Grid
	err  error
}

// runJob executes one job's grid under the supervisor: an optional
// wall-clock deadline (Config.JobTimeout), an optional stall watchdog
// (Config.StallTimeout) fed by the grid's progress heartbeats, and a
// last-resort abandonment path for jobs that ignore cancellation (a
// cell wedged inside one engine cycle never reaches the interrupt
// poll). The grid itself runs in a separate goroutine so the supervisor
// can keep the executor alive no matter what the job does.
func (s *Service) runJob(j *job) {
	ctx, cancelCause := context.WithCancelCause(s.baseCtx)
	defer cancelCause(nil)
	if s.cfg.JobTimeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeoutCause(ctx, s.cfg.JobTimeout, errJobDeadline)
		defer cancelTimeout()
	}

	s.mu.Lock()
	if j.state != StateQueued { // canceled while waiting
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.cancel = func() { cancelCause(errClientCancel) }
	s.running = 1
	opts, schemes := j.req.options()
	j.total = len(opts.Workloads) * len(schemes)
	s.reg.Gauge("service.jobs.running").Observe(1)
	j.publishLocked()
	s.mu.Unlock()
	s.store.Started(j.req)
	s.cfg.Logger.Info("job started", "job", j.id, "cells", j.total)

	// lastBeat is the watchdog's heartbeat: cell completions always beat;
	// with the watchdog armed, periodic in-cell progress beats too, so a
	// single long-running cell is not mistaken for a stall.
	var lastBeat atomic.Int64
	lastBeat.Store(time.Now().UnixNano())
	opts.Jobs = s.cfg.Jobs
	opts.Tables = s.cfg.Tables
	opts.Progress = func(p sim.GridProgress) {
		lastBeat.Store(time.Now().UnixNano())
		// Serialized by the grid's callback mutex; only the fields we
		// update here are touched concurrently with status reads, and
		// those reads also hold s.mu.
		s.mu.Lock()
		j.done, j.total = p.Done, p.Total
		j.publishLocked()
		s.mu.Unlock()
	}
	if s.cfg.StallTimeout > 0 {
		// Every cell beats into the same atomic, concurrently, at the
		// default progress cadence.
		opts.Base.Progress = func(sim.ProgressInfo) {
			lastBeat.Store(time.Now().UnixNano())
		}
	}

	// The grid goroutine: panic-isolated (the grid isolates its own
	// workers, but the report marshaling and chaos hooks here deserve the
	// same cover) and decoupled from the supervisor through a buffered
	// channel, so an abandoned goroutine's late send never blocks.
	done := make(chan jobOutcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- jobOutcome{err: &sim.PanicError{Value: r, Stack: debug.Stack()}}
			}
		}()
		if err := chaos.Hit("service.job.run"); err != nil {
			done <- jobOutcome{err: err}
			return
		}
		grid, err := sim.RunGridCtx(ctx, opts, schemes)
		done <- jobOutcome{grid: grid, err: err}
	}()

	out, abandoned := s.supervise(ctx, j, done, &lastBeat, cancelCause)

	var report []byte
	err := out.err
	if !abandoned && err == nil {
		var gr *sim.GridReport
		if gr, err = sim.NewGridReport(out.grid); err == nil {
			report, err = jsonenc.Marshal(gr.AppendJSON)
		}
	}

	state, errMsg, crashed := classify(ctx, err, abandoned, s.cfg.JobTimeout)
	s.mu.Lock()
	s.running = 0
	s.reg.Gauge("service.jobs.running").Observe(0)
	switch {
	case abandoned:
		s.reg.Counter("service.jobs.abandoned").Inc()
	case state == StateFailed:
		var pe *sim.PanicError
		if errors.As(err, &pe) {
			s.reg.Counter("service.jobs.panics").Inc()
		}
		if errors.Is(context.Cause(ctx), errJobDeadline) {
			s.reg.Counter("service.jobs.deadline_exceeded").Inc()
		}
	}
	s.store.Finished(j.req, state, errMsg, report, crashed)
	s.finishLocked(j, state, errMsg, report, crashed)
	s.mu.Unlock()
}

// supervise waits for the grid goroutine while enforcing the stall
// watchdog and the abandonment grace. Returns the grid's outcome, or
// abandoned=true if the goroutine failed to unwind after cancellation
// (its eventual result is discarded via the buffered channel).
func (s *Service) supervise(ctx context.Context, j *job, done <-chan jobOutcome, lastBeat *atomic.Int64, cancelCause context.CancelCauseFunc) (jobOutcome, bool) {
	var tick <-chan time.Time
	if s.cfg.StallTimeout > 0 || s.cfg.JobTimeout > 0 {
		period := s.abandonGrace / 4
		if s.cfg.StallTimeout > 0 && s.cfg.StallTimeout/4 < period {
			period = s.cfg.StallTimeout / 4
		}
		period = max(period, time.Millisecond)
		t := time.NewTicker(period)
		defer t.Stop()
		tick = t.C
	}
	var canceledAt time.Time // when ctx cancellation was first observed
	for {
		select {
		case out := <-done:
			return out, false
		case now := <-tick:
			if ctx.Err() != nil {
				// Canceled (client, deadline, watchdog or shutdown): a
				// healthy grid unwinds at its next interrupt poll. One that
				// does not is wedged — abandon it so the executor moves on.
				if canceledAt.IsZero() {
					canceledAt = now
				} else if now.Sub(canceledAt) > s.abandonGrace {
					s.cfg.Logger.Info("job abandoned", "job", j.id,
						"cause", context.Cause(ctx), "grace", s.abandonGrace)
					return jobOutcome{}, true
				}
				continue
			}
			if s.cfg.StallTimeout > 0 {
				idle := now.Sub(time.Unix(0, lastBeat.Load()))
				if idle >= s.cfg.StallTimeout {
					s.mu.Lock()
					s.reg.Counter("service.watchdog.kills").Inc()
					s.mu.Unlock()
					s.cfg.Logger.Info("watchdog kill", "job", j.id, "idle", idle)
					cancelCause(fmt.Errorf("%w: no progress heartbeat for %v (stall timeout %v)",
						errWatchdogStall, idle.Round(time.Millisecond), s.cfg.StallTimeout))
				}
			}
		}
	}
}

// classify maps a supervised job's ending to its terminal state, error
// message, and whether it is retryable-by-resubmit (crashed).
func classify(ctx context.Context, err error, abandoned bool, deadline time.Duration) (state, errMsg string, crashed bool) {
	cause := context.Cause(ctx)
	switch {
	case abandoned:
		return StateFailed, fmt.Sprintf(
			"failed by watchdog: %v; the job did not unwind after cancellation and was abandoned", cause), true
	case err == nil:
		return StateDone, "", false
	case errors.Is(cause, errWatchdogStall):
		// A stall is environmental (a wedged cell, injected latency), not a
		// property of the request: resubmitting retries it.
		return StateFailed, fmt.Sprintf("failed by watchdog: %v", cause), true
	case errors.Is(cause, errJobDeadline):
		return StateFailed, fmt.Sprintf("job deadline (%v) exceeded: %v", deadline, err), false
	case errors.Is(cause, errClientCancel):
		return StateCanceled, fmt.Sprintf("canceled: %v", err), false
	case ctx.Err() != nil && !errors.As(err, new(*sim.PanicError)):
		// Shutdown (the base context) or any other external cancellation.
		return StateCanceled, fmt.Sprintf("canceled: %v", err), false
	default:
		return StateFailed, err.Error(), false
	}
}

// finishLocked moves a job to a terminal state, publishes the terminal
// event and closes the job's event stream (ending every live stream
// after that event), and enters the job into the completed LRU
// (possibly evicting the oldest completed job entirely). Callers hold
// s.mu.
func (s *Service) finishLocked(j *job, state, errMsg string, report []byte, crashed bool) {
	j.state = state
	j.errMsg = errMsg
	j.report = report
	j.crashed = crashed
	j.cancel = nil
	switch state {
	case StateDone:
		s.reg.Counter("service.jobs.completed").Inc()
	case StateFailed:
		s.reg.Counter("service.jobs.failed").Inc()
	case StateCanceled:
		s.reg.Counter("service.jobs.canceled").Inc()
	}
	if errMsg != "" {
		s.cfg.Logger.Info("job finished", "job", j.id, "state", state,
			"elapsed", time.Since(j.submitted), "error", errMsg)
	} else {
		s.cfg.Logger.Info("job finished", "job", j.id, "state", state,
			"elapsed", time.Since(j.submitted))
	}
	j.publishLocked()
	j.events.Close()
	s.lru = append(s.lru, j.id)
	s.trimLRULocked()
}

// trimLRULocked forgets the least recently used completed jobs beyond
// Config.CacheSize, in memory and in the store. The store never takes
// s.mu, so calling it here cannot deadlock. Callers hold s.mu.
func (s *Service) trimLRULocked() {
	for len(s.lru) > s.cfg.CacheSize {
		evict := s.lru[0]
		s.lru = s.lru[1:]
		delete(s.jobs, evict)
		for i, id := range s.order {
			if id == evict {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.reg.Counter("service.cache.evictions").Inc()
		s.store.Evicted(evict)
	}
}

// touchLocked refreshes a completed job's LRU position on a cache hit.
func (s *Service) touchLocked(id string) {
	for i, v := range s.lru {
		if v == id {
			s.lru = append(s.lru[:i], s.lru[i+1:]...)
			s.lru = append(s.lru, id)
			return
		}
	}
}

// Status is the job document served by GET /jobs/{id} and streamed over
// SSE. Terminal states carry either ReportURL (done) or Error.
type Status struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Done      int    `json:"done"`
	Total     int    `json:"total"`
	Dedups    uint64 `json:"dedups"`
	Error     string `json:"error,omitempty"`
	ReportURL string `json:"report_url,omitempty"`
	// Crashed marks a failure the process caused (crash, watchdog
	// abandonment) rather than the request; resubmitting retries it.
	Crashed bool    `json:"crashed,omitempty"`
	Request Request `json:"request"`
}

// statusLocked freezes a job's Status. Callers hold s.mu (or own the
// job exclusively).
func (j *job) statusLocked() Status {
	st := Status{
		ID:      j.id,
		State:   j.state,
		Done:    j.done,
		Total:   j.total,
		Dedups:  j.dedups,
		Error:   j.errMsg,
		Crashed: j.crashed,
		Request: j.req,
	}
	if j.state == StateDone {
		st.ReportURL = "/jobs/" + j.id + "/report"
	}
	return st
}

// openEventsLocked gives the job a fresh event stream whose first event
// is its current status. Callers hold s.mu (or own the job exclusively).
func (s *Service) openEventsLocked(j *job) {
	j.events = introspect.NewBroker(s.cfg.SSEKeepalive)
	j.publishLocked()
}

// publishLocked streams the job's current status to its subscribers, so
// the stream's newest event is always the job's current state. Callers
// hold s.mu (or own the job exclusively).
func (j *job) publishLocked() {
	b, err := json.Marshal(j.statusLocked())
	if err != nil {
		// Status is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("service: marshaling status: %v", err))
	}
	j.events.Publish(b)
}
