package service

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ladder/internal/chaos"
	"ladder/internal/core"
)

// svcChaosScheme wraps the baseline policy with a chaos failpoint on
// its write path, so service tests can make "a scheme" panic on demand
// while the disarmed scheme behaves exactly like the baseline.
type svcChaosScheme struct{ core.Scheme }

func (c *svcChaosScheme) Enqueue(req *core.WriteRequest) ([]core.AuxRead, []core.MetaWriteback) {
	chaos.Hit("service.scheme.enqueue") //nolint:errcheck // panic-only failpoint
	return c.Scheme.Enqueue(req)
}

const svcChaosSchemeName = "test-service-chaos"

func registerSvcChaosScheme() {
	if _, err := core.SchemeName(svcChaosSchemeName); err == nil {
		return
	}
	core.RegisterScheme(svcChaosSchemeName, func(env *core.Env, _ core.MetaCacheConfig) (core.Scheme, error) {
		return &svcChaosScheme{Scheme: core.NewBaseline(env)}, nil
	})
}

// startService mounts an already-constructed service on a test listener
// and returns its base URL plus an idempotent shutdown func (used
// mid-test to simulate a restart; also registered as cleanup).
func startService(t *testing.T, svc *Service) (string, func()) {
	t.Helper()
	ts := httptest.NewServer(svc.Handler())
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ts.Close()
			svc.Close()
		})
	}
	t.Cleanup(stop)
	return ts.URL, stop
}

// waitTerminal polls a job until it leaves queued/running.
func waitTerminal(t *testing.T, url, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st Status
		getJSON(t, url+"/jobs/"+id, &st)
		if st.State != StateQueued && st.State != StateRunning {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return Status{}
}

// TestServiceCrashRecovery is the tentpole round trip at the service
// level: a durable service completes a job, the process "dies" (one
// job done, one accepted, one mid-run), and a fresh service over the
// same state dir serves the completed report byte-identically, re-runs
// the accepted job, and surfaces the mid-run job as failed-by-crash —
// which a resubmit then re-executes.
func TestServiceCrashRecovery(t *testing.T) {
	dir := t.TempDir()

	// Life 1: complete one job, then shut down.
	svc1, err := New(Config{StateDir: dir, Tables: smallTables(t)})
	if err != nil {
		t.Fatalf("starting durable service: %v", err)
	}
	ts1, stop1 := startService(t, svc1)
	_, sub := postJob(t, ts1, `{"workloads":["astar"],"schemes":["Baseline"],"instr":2000,"seed":7}`)
	st := waitTerminal(t, ts1, sub.ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	report := getBody(t, ts1+st.ReportURL)
	stop1()

	// Simulate the crash: a later process died with one job accepted and
	// another mid-run (records written the way the service would have).
	reqQueued := Request{Workloads: []string{"astar"}, Schemes: []string{"Baseline"}, Instr: 2000, Seed: 8}
	if err := reqQueued.normalize(0); err != nil {
		t.Fatal(err)
	}
	reqCrashed := Request{Workloads: []string{"astar"}, Schemes: []string{"Baseline"}, Instr: 2000, Seed: 9}
	if err := reqCrashed.normalize(0); err != nil {
		t.Fatal(err)
	}
	st2, _, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2.Accepted(reqQueued)
	st2.Accepted(reqCrashed)
	st2.Started(reqCrashed)

	// Life 2: recover.
	svc2, err := New(Config{StateDir: dir, Tables: smallTables(t)})
	if err != nil {
		t.Fatalf("recovering service: %v", err)
	}
	ts2, _ := startService(t, svc2)

	// The completed report serves byte-identically across the restart.
	var recovered Status
	getJSON(t, ts2+"/jobs/"+sub.ID, &recovered)
	if recovered.State != StateDone {
		t.Fatalf("completed job recovered as %q", recovered.State)
	}
	if again := getBody(t, ts2+"/jobs/"+sub.ID+"/report"); string(again) != string(report) {
		t.Fatal("recovered report not byte-identical")
	}

	// The mid-run job is failed-by-crash, marked retryable.
	crashed := waitTerminal(t, ts2, reqCrashed.id())
	if crashed.State != StateFailed || !crashed.Crashed || !strings.Contains(crashed.Error, "crash") {
		t.Fatalf("mid-run job recovered as %+v, want crashed failure", crashed)
	}

	// The accepted-but-never-started job re-queued and runs to done.
	requeued := waitTerminal(t, ts2, reqQueued.id())
	if requeued.State != StateDone {
		t.Fatalf("requeued job ended %s: %s", requeued.State, requeued.Error)
	}

	stats := svc2.StatsSnapshot()
	if stats.RecoveredReports != 1 || stats.RecoveredRequeued != 1 || stats.FailedByCrash != 1 {
		t.Fatalf("recovery stats = reports %d requeued %d crashed %d, want 1/1/1",
			stats.RecoveredReports, stats.RecoveredRequeued, stats.FailedByCrash)
	}
	if stats.StateDir != dir {
		t.Fatalf("stats state_dir = %q, want %q", stats.StateDir, dir)
	}

	// Resubmitting the crashed configuration re-runs it instead of
	// serving the stale crash failure.
	resp, re := postJob(t, ts2, fmt.Sprintf(`{"workloads":["astar"],"schemes":["Baseline"],"instr":2000,"seed":9}`))
	if resp.StatusCode != http.StatusAccepted || re.Outcome != "resubmitted" {
		t.Fatalf("resubmit of crashed job = %d/%q, want 202/resubmitted", resp.StatusCode, re.Outcome)
	}
	if rerun := waitTerminal(t, ts2, re.ID); rerun.State != StateDone {
		t.Fatalf("rerun ended %s: %s", rerun.State, rerun.Error)
	}
}

// TestWatchdogKillsAndAbandonsStalledJob drives the supervisor end to
// end with an injected stall: the watchdog cancels the heartbeat-less
// job, the wedged goroutine ignores the cancel past the grace, the job
// is abandoned with a structured error — and the executor survives to
// run the next job.
func TestWatchdogKillsAndAbandonsStalledJob(t *testing.T) {
	svc, ts := newTestService(t, Config{StallTimeout: 40 * time.Millisecond})
	svc.abandonGrace = 120 * time.Millisecond // before any job runs; ordered by the queue send

	chaos.Arm("service.job.run", chaos.Action{Delay: 5 * time.Second, Err: errors.New("wedged"), Times: 1})
	defer chaos.Reset()

	_, sub := postJob(t, ts.URL, `{"workloads":["astar"],"schemes":["Baseline"],"instr":2000,"seed":11}`)
	st := waitTerminal(t, ts.URL, sub.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "watchdog") || !strings.Contains(st.Error, "abandoned") {
		t.Fatalf("stalled job ended %q (%s), want watchdog abandonment", st.State, st.Error)
	}
	if !st.Crashed {
		t.Fatal("watchdog failure not marked retryable")
	}
	stats := svc.StatsSnapshot()
	if stats.WatchdogKills < 1 || stats.Abandoned != 1 {
		t.Fatalf("watchdog_kills %d abandoned %d, want >=1 and 1", stats.WatchdogKills, stats.Abandoned)
	}

	// The executor is free: a healthy job completes while the wedged
	// goroutine is still sleeping off its injected delay.
	_, next := postJob(t, ts.URL, `{"workloads":["astar"],"schemes":["Baseline"],"instr":2000,"seed":12}`)
	if healthy := waitTerminal(t, ts.URL, next.ID); healthy.State != StateDone {
		t.Fatalf("post-abandonment job ended %s: %s", healthy.State, healthy.Error)
	}
}

// TestJobDeadline pins Config.JobTimeout: a job over its wall-clock
// budget fails with a structured deadline error at the grid's next
// interrupt poll.
func TestJobDeadline(t *testing.T) {
	svc, ts := newTestService(t, Config{JobTimeout: 30 * time.Millisecond, MaxInstr: 100_000_000})
	_, sub := postJob(t, ts.URL, `{"workloads":["astar"],"schemes":["Baseline"],"instr":50000000,"seed":3}`)
	st := waitTerminal(t, ts.URL, sub.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("over-budget job ended %q (%s), want deadline failure", st.State, st.Error)
	}
	if got := svc.StatsSnapshot().DeadlineExceeded; got != 1 {
		t.Fatalf("deadline_exceeded = %d, want 1", got)
	}
}

// TestPanicFailsOnlyThatJob is the isolation acceptance test: a scheme
// that panics in one grid cell fails its own job — stack in the error —
// while the process keeps serving and the next job completes.
func TestPanicFailsOnlyThatJob(t *testing.T) {
	registerSvcChaosScheme()
	svc, ts := newTestService(t, Config{})
	chaos.Arm("service.scheme.enqueue", chaos.Action{Panic: "injected scheme bug", Times: 1})
	defer chaos.Reset()

	_, sub := postJob(t, ts.URL, fmt.Sprintf(`{"workloads":["astar"],"schemes":[%q],"instr":2000,"seed":5}`, svcChaosSchemeName))
	st := waitTerminal(t, ts.URL, sub.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "panic: injected scheme bug") {
		t.Fatalf("panicking job ended %q (%s), want panic failure", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "Enqueue") {
		t.Fatalf("panic error carries no stack: %s", st.Error)
	}
	if got := svc.StatsSnapshot().Panics; got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}

	// Process still serving: the same scheme, failpoint disarmed, runs
	// clean (it is the baseline underneath).
	_, next := postJob(t, ts.URL, fmt.Sprintf(`{"workloads":["astar"],"schemes":[%q],"instr":2000,"seed":6}`, svcChaosSchemeName))
	if healthy := waitTerminal(t, ts.URL, next.ID); healthy.State != StateDone {
		t.Fatalf("post-panic job ended %s: %s", healthy.State, healthy.Error)
	}
}

// TestResubmitAfterCancel pins the retryable-cancel semantics: a
// canceled job's configuration, resubmitted, re-enqueues fresh instead
// of being served the stale canceled state from the cache.
func TestResubmitAfterCancel(t *testing.T) {
	svc, ts := newIdleService(t, Config{})
	_, sub := postJob(t, ts.URL, `{"workloads":["astar"],"schemes":["Baseline"]}`)

	req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, re := postJob(t, ts.URL, `{"workloads":["astar"],"schemes":["Baseline"]}`)
	if resp.StatusCode != http.StatusAccepted || re.Outcome != "resubmitted" {
		t.Fatalf("resubmit after cancel = %d/%q, want 202/resubmitted", resp.StatusCode, re.Outcome)
	}
	if re.ID != sub.ID || re.State != StateQueued {
		t.Fatalf("resubmitted job = %s/%s, want same ID back in queue", re.ID, re.State)
	}
	if re.Error != "" || re.Crashed {
		t.Fatalf("resubmitted job kept stale terminal state: %+v", re.Status)
	}
	st := svc.StatsSnapshot()
	if st.Resubmitted != 1 || st.Canceled != 1 {
		t.Fatalf("stats = resubmitted %d canceled %d, want 1/1", st.Resubmitted, st.Canceled)
	}
	// The job is pending again, so it dedupes — it must NOT serve the
	// canceled state as a cache hit.
	resp, dup := postJob(t, ts.URL, `{"workloads":["astar"],"schemes":["Baseline"]}`)
	if resp.StatusCode != http.StatusAccepted || dup.Outcome != "deduplicated" {
		t.Fatalf("submit while requeued = %d/%q, want 202/deduplicated", resp.StatusCode, dup.Outcome)
	}
}

// TestReadyzDegradesOnStoreFailure: /readyz is 200 while healthy and
// 503 once the durable store records a write failure — while /healthz
// (liveness) and job serving stay up.
func TestReadyzDegradesOnStoreFailure(t *testing.T) {
	svc, err := New(Config{StateDir: t.TempDir(), Tables: smallTables(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := startService(t, svc)

	if code := getStatusCode(t, ts+"/readyz"); code != http.StatusOK {
		t.Fatalf("healthy readyz = %d, want 200", code)
	}

	chaos.Arm("service.state.write", chaos.Action{Err: errors.New("disk gone"), Times: 1})
	defer chaos.Reset()
	_, sub := postJob(t, ts, `{"workloads":["astar"],"schemes":["Baseline"],"instr":2000,"seed":21}`)

	if code := getStatusCode(t, ts+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("degraded readyz = %d, want 503", code)
	}
	if code := getStatusCode(t, ts+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during degradation = %d, want 200 (liveness unaffected)", code)
	}
	// Availability is shed last: the job still runs to completion from
	// memory.
	if st := waitTerminal(t, ts, sub.ID); st.State != StateDone {
		t.Fatalf("job under degraded durability ended %s: %s", st.State, st.Error)
	}
}
