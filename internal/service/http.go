package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ladder/internal/metrics"
)

// routes builds the API mux. Patterns use Go 1.22 method matching, so a
// wrong method on a known path yields 405 from the mux itself.
func (s *Service) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics/prom", s.handleProm)
}

// writeJSON emits one API response document.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort response body
}

// apiError is the uniform error document.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// submitResponse wraps a Status with how the submission resolved, so
// clients can tell a fresh enqueue from a dedup or a cache hit.
type submitResponse struct {
	Status
	// Outcome is "accepted", "deduplicated", "cached" or "resubmitted"
	// (a canceled or crashed job returned to the queue).
	Outcome string `json:"outcome"`
}

// handleSubmit implements POST /jobs.
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if err := req.normalize(s.cfg.MaxInstr); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, outcome := s.submit(req)
	switch outcome {
	case outcomeRejected:
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "queue full (%d pending); retry later", s.cfg.QueueDepth)
		return
	case outcomeClosed:
		writeError(w, http.StatusServiceUnavailable, "service shutting down")
		return
	}
	s.mu.Lock()
	resp := submitResponse{Status: j.statusLocked()}
	s.mu.Unlock()
	code := http.StatusAccepted
	switch outcome {
	case outcomeNew:
		resp.Outcome = "accepted"
	case outcomeResubmitted:
		resp.Outcome = "resubmitted"
	case outcomeDeduped:
		resp.Outcome = "deduplicated"
	case outcomeCached:
		resp.Outcome = "cached"
		code = http.StatusOK
	}
	writeJSON(w, code, resp)
}

// handleList implements GET /jobs: every retained job in submission
// order.
func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j.statusLocked())
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// handleStatus implements GET /jobs/{id}.
func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var st Status
	if ok {
		st = j.statusLocked()
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleCancel implements DELETE /jobs/{id}.
func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ok, reason := s.cancelJob(id)
	if !ok {
		code := http.StatusConflict
		if reason == "unknown job" {
			code = http.StatusNotFound
		}
		writeError(w, code, "cannot cancel %q: %s", id, reason)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"canceled": id})
}

// handleReport implements GET /jobs/{id}/report: the completed grid
// report, byte-identical on every request (served from the cache).
func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var state string
	var report []byte
	if ok {
		state, report = j.state, j.report
	}
	s.mu.Unlock()
	switch {
	case !ok:
		writeError(w, http.StatusNotFound, "unknown job %q", id)
	case state == StateFailed || state == StateCanceled:
		writeError(w, http.StatusGone, "job %q terminated without a report (%s)", id, state)
	case report == nil:
		writeError(w, http.StatusConflict, "job %q has not completed (state %s)", id, state)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(report)))
		w.Write(report) //nolint:errcheck // best-effort response body
	}
}

// handleEvents implements GET /jobs/{id}/events: a Server-Sent Events
// stream of Status documents — the current state immediately, then one
// event per grid-cell completion and state transition, ending with the
// terminal event. Every frame carries an "id:" field (the job's event
// sequence); a client reconnecting with the standard Last-Event-ID
// header skips the initial frame if it already saw it. Slow consumers
// may miss intermediate progress events (the per-subscriber buffer is
// bounded) but always see the terminal state.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, cur, ok := s.subscribe(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	var after uint64
	resuming := false
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		// A malformed ID is treated as absent: the client starts fresh.
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			after, resuming = n, true
		}
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	send := func(ev jobEvent) {
		fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.id, ev.body)
		if canFlush {
			fl.Flush()
		}
	}
	if !resuming || cur.id > after {
		// Fresh clients always get the current snapshot; a resuming client
		// skips it if its Last-Event-ID shows it already saw this state.
		send(cur)
	} else if canFlush {
		// Nothing new yet: commit the stream headers so the client knows
		// the resume was accepted.
		fl.Flush()
	}
	if ch == nil { // already terminal: the current event was the last
		return
	}
	// Keepalive comments hold the connection open through idle stretches
	// (a queued job can sit silent for minutes; proxies reap quiet
	// streams). Comment frames are invisible to EventSource clients.
	var keep <-chan time.Time
	if s.cfg.SSEKeepalive > 0 {
		t := time.NewTicker(s.cfg.SSEKeepalive)
		defer t.Stop()
		keep = t.C
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				return
			}
			send(ev)
		case <-keep:
			fmt.Fprint(w, ": keepalive\n\n")
			if canFlush {
				fl.Flush()
			}
		}
	}
}

// handleStats implements GET /stats.
func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

// handleHealthz implements GET /healthz.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Readiness is the GET /readyz document.
type Readiness struct {
	Ready bool `json:"ready"`
	// Draining is set once Close has begun: the service no longer
	// accepts submissions.
	Draining bool `json:"draining,omitempty"`
	// StoreError carries the durable store's sticky first write failure.
	// The service keeps serving from memory (liveness is unaffected),
	// but readiness degrades so orchestrators can rotate the instance.
	StoreError string `json:"store_error,omitempty"`
	StateDir   string `json:"state_dir,omitempty"`
}

// handleReadyz implements GET /readyz: 200 while the service accepts
// work and its durable store (if configured) is healthy, 503 otherwise.
// Distinct from /healthz (pure liveness): a service with a broken state
// disk is alive but not ready.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	doc := Readiness{Draining: s.closed, StateDir: s.cfg.StateDir}
	s.mu.Unlock()
	if err := s.store.Err(); err != nil {
		doc.StoreError = err.Error()
	}
	doc.Ready = !doc.Draining && doc.StoreError == ""
	code := http.StatusOK
	if !doc.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, doc)
}

// handleProm implements GET /metrics/prom: the service's registry in
// the Prometheus text exposition format, plus one labeled progress
// series per retained job (the job ID is the label, so a scraper can
// chart each sweep's cell completion individually).
func (s *Service) handleProm(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.reg.Gauge("service.queue.depth").Observe(float64(len(s.queue)))
	s.reg.Gauge("service.jobs.running").Observe(float64(s.running))
	snap := s.reg.Snapshot()
	var extra []metrics.PromSample
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		extra = append(extra,
			metrics.PromSample{
				Name: "service.job.cells_done", Type: "gauge",
				Help:  "grid cells completed, by job ID",
				Value: float64(j.done),
				Labels: []metrics.PromLabel{
					{Name: "job", Value: id}, {Name: "state", Value: j.state},
				},
			},
			metrics.PromSample{
				Name: "service.job.cells", Type: "gauge",
				Help:  "grid cells total, by job ID",
				Value: float64(j.total),
				Labels: []metrics.PromLabel{
					{Name: "job", Value: id}, {Name: "state", Value: j.state},
				},
			})
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	//nolint:errcheck // best-effort response body
	metrics.WritePrometheus(w, snap, nil, extra...)
}
