package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"ladder/internal/introspect"
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
	s.mux.Handle("GET /metrics/prom", introspect.PromHandler(s.promSource))
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
// stream of Status documents from the job's event stream (see
// docs/SERVICE.md). A fresh client, or one whose Last-Event-ID the job
// never issued, starts at the current status; a resuming one replays
// what it missed. A finished job's stream is its terminal status.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var events *introspect.Broker
	if ok {
		events = j.events
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	events.ServeLatest(w, r)
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

// promSource is the GET /metrics/prom scrape: the service's registry
// plus one labeled progress series per retained job (the job ID is the
// label, so a scraper can chart each sweep's cell completion
// individually).
func (s *Service) promSource() (metrics.Snapshot, []metrics.PromLabel, []metrics.PromSample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.snapshotLocked()
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
	return snap, nil, extra
}
