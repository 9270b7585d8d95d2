package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ladder/internal/service"
)

// fakeService answers POST /jobs by the request's seed: seed%3 == 0 is
// refused with 503, seed%3 == 1 runs and fails, the rest run and finish.
func fakeService(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req service.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decoding request: %v", err)
		}
		seed := req.Seed
		if seed%3 == 0 {
			http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"j%d","state":"queued","outcome":"accepted"}`, seed)
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		var seed int64
		fmt.Sscanf(r.PathValue("id"), "j%d", &seed)
		final := service.StateDone
		if seed%3 == 1 {
			final = service.StateFailed
		}
		for i, st := range []string{service.StateQueued, service.StateRunning, final} {
			fmt.Fprintf(w, "id: %d\ndata: {\"state\":%q}\n\n", i+1, st)
			w.(http.Flusher).Flush()
			time.Sleep(time.Millisecond)
		}
	})
	mux.HandleFunc("GET /jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"schema":"ladder.grid-report/v1"}`)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestDoJobOutcomes(t *testing.T) {
	srv := fakeService(t)
	b := &bench{seed: 1, metrics: map[string]metric{}}
	client := srv.Client()
	var st sessionStats
	for seed := int64(0); seed < 3; seed++ {
		rec := doJob(context.Background(), b, client, srv.URL, service.Request{Seed: seed}, seed)
		st.add(rec)
	}
	r := st.records
	if r[0].outcome != jobRefused || r[1].outcome != jobFailed || r[2].outcome != jobDone {
		t.Fatalf("outcomes = %v %v %v, want refused failed done", r[0].outcome, r[1].outcome, r[2].outcome)
	}
	if !r[2].sawRunning || r[2].run <= 0 || r[2].reportLen == 0 || r[2].latency < r[2].submit+r[2].run {
		t.Errorf("done job record = %+v", r[2])
	}
	attempted, failed := st.counts()
	if attempted != 3 || failed != 2 {
		t.Errorf("counts = %d attempted, %d failed; want 3, 2", attempted, failed)
	}
	lat := st.latenciesMs()
	if !math.IsInf(lat[0], 1) || !math.IsInf(lat[1], 1) || math.IsInf(lat[2], 1) {
		t.Errorf("latencies = %v: refused and failed jobs must be +Inf", lat)
	}
	if got := len(st.phaseMs(func(r jobRecord) time.Duration { return r.run }, true)); got != 1 {
		t.Errorf("run phase samples = %d, want only the completed job", got)
	}
}

func TestSessionStopsAtJobCount(t *testing.T) {
	srv := fakeService(t)
	b := &bench{seed: 7, metrics: map[string]metric{}, out: io.Discard}
	var calls atomic.Int64
	st := runSession(context.Background(), b, &server{base: srv.URL}, 1, func(jobs int, _ time.Duration) bool {
		calls.Add(1)
		return jobs >= 30
	})
	attempted, failed := st.counts()
	// Each client finishes the job in hand after the stop, so the count
	// may overshoot by at most workers-1.
	if attempted < 30 || attempted > 30+workers-1 {
		t.Errorf("attempted = %d, want 30..%d", attempted, 30+workers-1)
	}
	if int64(attempted) != calls.Load() {
		t.Errorf("done consulted %d times for %d jobs", calls.Load(), attempted)
	}
	if failed == 0 || failed == attempted {
		t.Errorf("failed = %d of %d: the fake refuses or fails two seeds in three", failed, attempted)
	}
	repeats := 0
	seen := map[int64]bool{}
	for _, r := range st.records {
		if seen[r.req.Seed] {
			repeats++
		}
		seen[r.req.Seed] = true
	}
	if repeats == 0 {
		t.Error("no submission repeated an earlier request body")
	}
}
