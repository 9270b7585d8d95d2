package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ladder/internal/circuit"
	"ladder/internal/metrics"
	"ladder/internal/sim"
	"ladder/internal/timing"
)

var (
	tablesOnce sync.Once
	testTables *timing.TableSet
	tablesErr  error
)

// smallTables builds a 128×128 table set once, shared by the service
// tests.
func smallTables(t *testing.T) *timing.TableSet {
	t.Helper()
	tablesOnce.Do(func() {
		p := circuit.DefaultParams()
		p.N = 128
		testTables, tablesErr = timing.NewTableSet(p)
	})
	if tablesErr != nil {
		t.Fatal(tablesErr)
	}
	return testTables
}

// newTestService starts a live service (executor running) behind an
// httptest listener.
func newTestService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	cfg.Tables = smallTables(t)
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("starting service: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// newIdleService builds a service whose executor never runs, so queued
// jobs stay queued: the deterministic fixture for dedup, backpressure
// and cancel-while-queued handler tests.
func newIdleService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
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
	s.routes()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
	})
	return s, ts
}

func postJob(t *testing.T, url, body string) (*http.Response, submitResponse) {
	t.Helper()
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return resp, sr
}

// TestNewRejectsNegativeConfig: New checks every Config range up front,
// returning an error that names the field. A negative QueueDepth used to
// panic in New and a negative Jobs to fail every job once it ran.
func TestNewRejectsNegativeConfig(t *testing.T) {
	for _, c := range []struct {
		field string
		cfg   Config
	}{
		{"QueueDepth", Config{QueueDepth: -1}},
		{"CacheSize", Config{CacheSize: -1}},
		{"Jobs", Config{Jobs: -1}},
		{"JobTimeout", Config{JobTimeout: -time.Second}},
		{"StallTimeout", Config{StallTimeout: -time.Second}},
	} {
		t.Run(c.field, func(t *testing.T) {
			var svc *Service
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("New panicked: %v", r)
					}
				}()
				svc, err = New(c.cfg)
			}()
			if err == nil || !strings.Contains(err.Error(), c.field) {
				if svc != nil {
					svc.Close()
				}
				t.Fatalf("New: error %v, want one naming %s", err, c.field)
			}
		})
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newIdleService(t, Config{MaxInstr: 10_000})
	cases := []struct {
		name, body, wantErr string
	}{
		{"malformed JSON", `{"workloads": [`, "decoding request"},
		{"unknown field", `{"workloads":["astar"],"schemes":["Baseline"],"bogus":1}`, "bogus"},
		{"no workloads", `{"schemes":["Baseline"]}`, "at least one workload"},
		{"no schemes", `{"workloads":["astar"]}`, "at least one scheme"},
		{"unknown workload", `{"workloads":["nope"],"schemes":["Baseline"]}`, `unknown workload "nope"`},
		{"unknown scheme", `{"workloads":["astar"],"schemes":["nope"]}`, `unknown scheme "nope"`},
		{"instr over cap", `{"workloads":["astar"],"schemes":["Baseline"],"instr":20000}`, "budget cap"},
		{"removed fault field", `{"workloads":["astar"],"schemes":["Baseline"],"retry_max":3}`, "retry_max"},
		{"repeated workload", `{"workloads":["lbm","astar","lbm"],"schemes":["Baseline"],"instr":5000}`, "Workloads"},
		{"repeated scheme", `{"workloads":["astar"],"schemes":["Baseline","baseline"],"instr":5000}`, `"Baseline" and "baseline"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatalf("POST /jobs: %v", err)
			}
			defer resp.Body.Close()
			var e apiError
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("decoding error document: %v", err)
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, c.wantErr) {
				t.Fatalf("status = %d, error %q; want 400 naming %q", resp.StatusCode, e.Error, c.wantErr)
			}
		})
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := newIdleService(t, Config{})
	for _, tc := range []struct{ method, path string }{
		{"GET", "/jobs/deadbeef"},
		{"GET", "/jobs/deadbeef/report"},
		{"GET", "/jobs/deadbeef/events"},
		{"DELETE", "/jobs/deadbeef"},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s = %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// TestDedupAndBackpressure drives the idle service: with a queue of one,
// the first configuration is accepted, a resubmission (in a different
// scheme spelling) dedupes onto it, and a second configuration is
// rejected with 503.
func TestDedupAndBackpressure(t *testing.T) {
	svc, ts := newIdleService(t, Config{QueueDepth: 1})

	resp, first := postJob(t, ts.URL, `{"workloads":["astar"],"schemes":["LADDER-Hybrid"]}`)
	if resp.StatusCode != http.StatusAccepted || first.Outcome != "accepted" {
		t.Fatalf("first submit = %d/%q, want 202/accepted", resp.StatusCode, first.Outcome)
	}
	if first.State != StateQueued {
		t.Fatalf("first submit state = %q, want queued", first.State)
	}

	// Same configuration, different spelling and explicit default instr:
	// normalization makes these hash-identical.
	resp, dup := postJob(t, ts.URL, `{"workloads":["astar"],"schemes":["ladder-hybrid"],"instr":200000}`)
	if resp.StatusCode != http.StatusAccepted || dup.Outcome != "deduplicated" {
		t.Fatalf("duplicate submit = %d/%q, want 202/deduplicated", resp.StatusCode, dup.Outcome)
	}
	if dup.ID != first.ID {
		t.Fatalf("duplicate got its own job: %q vs %q", dup.ID, first.ID)
	}

	// A different configuration finds the single queue slot taken.
	resp, _ = postJob(t, ts.URL, `{"workloads":["lbm"],"schemes":["Baseline"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	st := svc.StatsSnapshot()
	if st.Submitted != 1 || st.Deduped != 1 || st.Rejected != 1 {
		t.Fatalf("stats = submitted %d deduped %d rejected %d, want 1/1/1", st.Submitted, st.Deduped, st.Rejected)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	svc, ts := newIdleService(t, Config{})
	_, sub := postJob(t, ts.URL, `{"workloads":["astar"],"schemes":["Baseline"]}`)

	req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel = %d, want 202", resp.StatusCode)
	}

	// Now terminal: status shows canceled, the report is 410 Gone, and a
	// second cancel conflicts.
	var st Status
	getJSON(t, ts.URL+"/jobs/"+sub.ID, &st)
	if st.State != StateCanceled {
		t.Fatalf("state after cancel = %q, want canceled", st.State)
	}
	if code := getStatusCode(t, ts.URL+"/jobs/"+sub.ID+"/report"); code != http.StatusGone {
		t.Fatalf("report after cancel = %d, want 410", code)
	}
	req, _ = http.NewRequest("DELETE", ts.URL+"/jobs/"+sub.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel = %d, want 409", resp.StatusCode)
	}
	if got := svc.StatsSnapshot().Canceled; got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}
}

// TestCacheEviction exercises the LRU bound directly: with CacheSize 1,
// finishing a second job forgets the first entirely.
func TestCacheEviction(t *testing.T) {
	svc, _ := newIdleService(t, Config{CacheSize: 1})
	a := &job{id: "job-a", state: StateQueued}
	b := &job{id: "job-b", state: StateQueued}
	svc.mu.Lock()
	svc.jobs["job-a"], svc.jobs["job-b"] = a, b
	svc.order = []string{"job-a", "job-b"}
	svc.finishLocked(a, StateDone, "", []byte("{}"), false)
	svc.finishLocked(b, StateDone, "", []byte("{}"), false)
	svc.mu.Unlock()

	st := svc.StatsSnapshot()
	if st.Evictions != 1 || st.Cached != 1 {
		t.Fatalf("evictions %d cached %d, want 1/1", st.Evictions, st.Cached)
	}
	svc.mu.Lock()
	_, aLives := svc.jobs["job-a"]
	_, bLives := svc.jobs["job-b"]
	svc.mu.Unlock()
	if aLives || !bLives {
		t.Fatalf("LRU kept the wrong job: a=%v b=%v", aLives, bLives)
	}
}

// TestEndToEndRoundTrip is the full lifecycle against a live service:
// submit, watch it run to completion, fetch the byte-stable report, and
// hit the cache by resubmitting.
func TestEndToEndRoundTrip(t *testing.T) {
	svc, ts := newTestService(t, Config{})
	body := `{"workloads":["astar"],"schemes":["LADDER-Hybrid"],"instr":2000,"seed":7}`
	resp, sub := postJob(t, ts.URL, body)
	if resp.StatusCode != http.StatusAccepted || sub.Outcome != "accepted" {
		t.Fatalf("submit = %d/%q, want 202/accepted", resp.StatusCode, sub.Outcome)
	}

	var st Status
	deadline := time.Now().Add(60 * time.Second)
	for {
		getJSON(t, ts.URL+"/jobs/"+sub.ID, &st)
		if st.State == StateDone {
			break
		}
		if st.State == StateFailed || st.State == StateCanceled {
			t.Fatalf("job ended %s: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s (%d/%d cells)", st.State, st.Done, st.Total)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.Done != 1 || st.Total != 1 || st.ReportURL == "" {
		t.Fatalf("terminal status incomplete: %+v", st)
	}

	report := getBody(t, ts.URL+st.ReportURL)
	var gr struct {
		Schema string `json:"schema"`
		Cells  []struct {
			Workload string `json:"workload"`
			Scheme   string `json:"scheme"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(report, &gr); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if gr.Schema != sim.GridReportSchema {
		t.Fatalf("report schema = %q, want %q", gr.Schema, sim.GridReportSchema)
	}
	if len(gr.Cells) != 1 || gr.Cells[0].Workload != "astar" || gr.Cells[0].Scheme != "LADDER-Hybrid" {
		t.Fatalf("unexpected cells: %+v", gr.Cells)
	}
	if again := getBody(t, ts.URL+st.ReportURL); !bytes.Equal(report, again) {
		t.Fatal("report not byte-identical across fetches")
	}

	// Resubmitting the finished configuration is a cache hit, not a rerun.
	resp, hit := postJob(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK || hit.Outcome != "cached" {
		t.Fatalf("resubmit = %d/%q, want 200/cached", resp.StatusCode, hit.Outcome)
	}
	if hit.ID != sub.ID {
		t.Fatalf("cache hit changed the job ID: %q vs %q", hit.ID, sub.ID)
	}

	// The SSE stream of a terminal job delivers exactly the final status,
	// id-stamped so reconnecting clients can resume with Last-Event-ID.
	events := getBody(t, ts.URL+"/jobs/"+sub.ID+"/events")
	if !strings.HasPrefix(string(events), "id: ") || !strings.Contains(string(events), "\ndata: ") ||
		!strings.Contains(string(events), `"state":"done"`) {
		t.Fatalf("terminal SSE stream malformed: %q", events)
	}

	stats := svc.StatsSnapshot()
	if stats.Submitted != 1 || stats.Completed != 1 || stats.CacheHits != 1 {
		t.Fatalf("stats = submitted %d completed %d cache_hits %d, want 1/1/1", stats.Submitted, stats.Completed, stats.CacheHits)
	}
	snap := svc.MetricsSnapshot()
	if snap.Counters["service.jobs.completed"] != 1 {
		t.Fatalf("metrics snapshot missing service.jobs.completed: %v", snap.Counters)
	}
}

// TestRequestNormalizationHashing pins the dedup key: spelling variants
// and implicit defaults hash identically; different configurations do
// not.
func TestRequestNormalizationHashing(t *testing.T) {
	id := func(req Request) string {
		t.Helper()
		if err := req.normalize(0); err != nil {
			t.Fatalf("normalize(%+v): %v", req, err)
		}
		return req.id()
	}
	base := id(Request{Workloads: []string{"astar"}, Schemes: []string{"LADDER-Hybrid"}})
	if got := id(Request{Workloads: []string{"astar"}, Schemes: []string{"ladder-hybrid"}, Instr: sim.DefaultInstr}); got != base {
		t.Fatal("scheme spelling and explicit default instr should not change the job ID")
	}
	if got := id(Request{Workloads: []string{"astar"}, Schemes: []string{"LADDER-Hybrid"}, Seed: 1}); got == base {
		t.Fatal("different seed must produce a different job ID")
	}
}

// TestMetricsStableFromBoot pins that every counter GET /stats reports
// is in the registry from boot, so a /metrics scrape does not depend on
// whether /stats was read first, and that each counter lands in its own
// Stats field.
func TestMetricsStableFromBoot(t *testing.T) {
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	before := svc.MetricsSnapshot()
	svc.StatsSnapshot()
	after := svc.MetricsSnapshot()
	if !reflect.DeepEqual(before.Counters, after.Counters) || !reflect.DeepEqual(before.SortedNames(), after.SortedNames()) {
		t.Fatalf("/stats changed the metrics:\nbefore %v\n after %v", before.Counters, after.Counters)
	}
	for _, c := range statsCounters {
		if _, ok := before.Counters[c.name]; !ok {
			t.Errorf("%s missing from the boot snapshot", c.name)
		}
	}
	// Counter i holds bit i: the Stats counter fields sum to all bits
	// only if every counter has a field of its own.
	for i, c := range statsCounters {
		svc.reg.SetCounter(c.name, 1<<i)
	}
	st := reflect.ValueOf(svc.StatsSnapshot())
	var sum uint64
	for i := range st.NumField() {
		if f := st.Field(i); f.Kind() == reflect.Uint64 {
			sum += f.Uint()
		}
	}
	if want := uint64(1)<<len(statsCounters) - 1; sum != want {
		t.Fatalf("Stats counter fields sum to %#x, want %#x", sum, want)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, b)
	}
	return b
}

func getStatusCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
