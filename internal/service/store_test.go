package service

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ladder/internal/chaos"
)

// testRequest returns a normalized fixture request; distinct seeds give
// distinct job IDs.
func testRequest(t *testing.T, seed int64) Request {
	t.Helper()
	req := Request{Workloads: []string{"astar"}, Schemes: []string{"Baseline"}, Seed: seed}
	if err := req.normalize(0); err != nil {
		t.Fatalf("normalizing fixture request: %v", err)
	}
	return req
}

// reopen opens a state directory again, returning the recovery — the
// crash-restart primitive every test builds on. Every write is durable
// when it returns, so no close precedes it.
func reopen(t *testing.T, dir string) (*Store, *Recovery) {
	t.Helper()
	st, rec, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("reopening store: %v", err)
	}
	return st, rec
}

func byID(rec *Recovery) map[string]RecoveredJob {
	m := make(map[string]RecoveredJob)
	for _, j := range rec.Jobs {
		m[j.ID] = j
	}
	return m
}

// TestStoreRoundTrip pins the tentpole guarantee: a completed report
// written before a restart is recovered byte-identically after it.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, rec := reopen(t, dir)
	if len(rec.Jobs) != 0 {
		t.Fatalf("fresh store recovered %d jobs", len(rec.Jobs))
	}
	req := testRequest(t, 1)
	report := []byte(`{"schema":"test","cells":[1,2,3]}`)
	st.Accepted(req)
	st.Started(req)
	st.Finished(req, StateDone, "", report, false)
	if err := st.Err(); err != nil {
		t.Fatalf("store degraded: %v", err)
	}

	_, rec = reopen(t, dir)
	if len(rec.Jobs) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(rec.Jobs))
	}
	j := rec.Jobs[0]
	if j.ID != req.id() || j.State != StateDone || j.Crashed {
		t.Fatalf("recovered job = %+v, want done %s", j, req.id())
	}
	if string(j.Report) != string(report) {
		t.Fatalf("report not byte-identical: %q vs %q", j.Report, report)
	}
	if len(j.Req.Workloads) != 1 || j.Req.Workloads[0] != "astar" {
		t.Fatalf("request did not round-trip: %+v", j.Req)
	}
}

// TestStoreCrashStates pins the two interrupted-job outcomes: accepted
// but never started re-queues; started but never finished comes back
// failed-by-crash (and stays failed across a further restart).
func TestStoreCrashStates(t *testing.T) {
	dir := t.TempDir()
	st, _ := reopen(t, dir)
	queued, running := testRequest(t, 1), testRequest(t, 2)
	st.Accepted(queued)
	st.Accepted(running)
	st.Started(running)

	_, rec := reopen(t, dir)
	if rec.Requeued != 1 || rec.FailedByCrash != 1 {
		t.Fatalf("requeued %d failed-by-crash %d, want 1/1", rec.Requeued, rec.FailedByCrash)
	}
	jobs := byID(rec)
	if j := jobs[queued.id()]; j.State != StateQueued {
		t.Fatalf("accepted-only job recovered as %q, want queued", j.State)
	}
	j := jobs[running.id()]
	if j.State != StateFailed || !j.Crashed || !strings.Contains(j.ErrMsg, "crash") {
		t.Fatalf("interrupted job recovered as %+v, want crashed failure", j)
	}

	// A second restart must not resurrect it as running: recovery already
	// rewrote its record as a crash failure.
	_, rec2 := reopen(t, dir)
	if rec2.FailedByCrash != 0 {
		t.Fatalf("second restart re-counted failed-by-crash: %d", rec2.FailedByCrash)
	}
	if j := byID(rec2)[running.id()]; j.State != StateFailed || !j.Crashed {
		t.Fatalf("crash failure did not persist: %+v", j)
	}
}

// TestStoreCorruptRecords pins crash tolerance in the state directory: a
// truncated record, an unknown state and a record filed under another
// job's ID are each counted once and removed, never fatal; a stray temp
// file from an interrupted replace is removed without counting; and the
// intact records beside them recover.
func TestStoreCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	st, _ := reopen(t, dir)
	good, torn, unknown, other := testRequest(t, 1), testRequest(t, 2), testRequest(t, 3), testRequest(t, 4)
	st.Accepted(good)
	write := func(name string, body []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, good.id()+".job"))
	if err != nil {
		t.Fatal(err)
	}
	write(torn.id()+".job", b[:len(b)/2])
	bad, err := json.Marshal(jobRecord{Req: unknown, State: "started"})
	if err != nil {
		t.Fatal(err)
	}
	write(unknown.id()+".job", bad)
	write(other.id()+".job", b) // good's record under other's name
	write(good.id()+".job.tmp", b[:3])

	_, rec, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("corrupt records must not be fatal: %v", err)
	}
	if rec.CorruptRecords != 3 {
		t.Fatalf("corrupt records = %d, want 3", rec.CorruptRecords)
	}
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != good.id() || rec.Jobs[0].State != StateQueued {
		t.Fatalf("intact record lost: %+v", rec.Jobs)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("state dir after recovery holds %d files, want only the intact record", len(entries))
	}
	if _, rec := reopen(t, dir); rec.CorruptRecords != 0 {
		t.Fatalf("second boot re-counted %d corrupt records", rec.CorruptRecords)
	}
}

// TestStoreCorruptBlob: a done record whose report blob was lost or
// corrupted (hash mismatch) degrades to failed-by-crash instead of
// serving wrong bytes.
func TestStoreCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	st, _ := reopen(t, dir)
	req := testRequest(t, 1)
	st.Accepted(req)
	st.Finished(req, StateDone, "", []byte(`{"good":true}`), false)
	if err := os.WriteFile(filepath.Join(dir, req.id()+".json"), []byte(`{"tampered":1}`), 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := reopen(t, dir)
	if rec.FailedByCrash != 1 || rec.CorruptRecords != 1 {
		t.Fatalf("failed-by-crash %d corrupt %d, want 1/1", rec.FailedByCrash, rec.CorruptRecords)
	}
	j := rec.Jobs[0]
	if j.State != StateFailed || !j.Crashed || !strings.Contains(j.ErrMsg, "hash mismatch") {
		t.Fatalf("corrupt blob recovered as %+v", j)
	}
}

// TestStoreEviction: an evicted job is forgotten entirely on recovery,
// its record and blob removed from disk.
func TestStoreEviction(t *testing.T) {
	dir := t.TempDir()
	st, _ := reopen(t, dir)
	req := testRequest(t, 1)
	st.Accepted(req)
	st.Finished(req, StateDone, "", []byte(`{}`), false)
	st.Evicted(req.id())
	for _, ext := range []string{".job", ".json"} {
		if _, err := os.Stat(filepath.Join(dir, req.id()+ext)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("evicted %s still on disk (err=%v)", ext, err)
		}
	}

	_, rec := reopen(t, dir)
	if len(rec.Jobs) != 0 {
		t.Fatalf("evicted job resurrected: %+v", rec.Jobs)
	}
}

// TestStoreCanceledThenResubmitted: a canceled record is terminal, but a
// later re-accept resets the lifecycle — the job recovers as queued.
func TestStoreCanceledThenResubmitted(t *testing.T) {
	dir := t.TempDir()
	st, _ := reopen(t, dir)
	req := testRequest(t, 1)
	st.Accepted(req)
	st.Finished(req, StateCanceled, "canceled before execution", nil, false)
	st.Accepted(req)

	_, rec := reopen(t, dir)
	if len(rec.Jobs) != 1 || rec.Jobs[0].State != StateQueued || rec.Jobs[0].ErrMsg != "" {
		t.Fatalf("re-accepted job recovers as %+v, want clean queued", rec.Jobs)
	}
}

// TestStoreOneRecordPerJob: a job's churn (accept/start/finish cycles)
// leaves exactly its one record and no temp files, so the state dir is
// bounded by retained jobs, not by lifetime transitions.
func TestStoreOneRecordPerJob(t *testing.T) {
	dir := t.TempDir()
	st, _ := reopen(t, dir)
	req := testRequest(t, 1)
	for range 10 {
		st.Accepted(req)
		st.Started(req)
		st.Finished(req, StateFailed, "boom", nil, false)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != req.id()+".job" {
		t.Fatalf("state dir holds %v, want only %s.job", entries, req.id())
	}
	if _, rec := reopen(t, dir); len(rec.Jobs) != 1 || rec.Jobs[0].ErrMsg != "boom" {
		t.Fatalf("churned job recovers as %+v, want its last failure", rec.Jobs)
	}
}

// TestStoreRefusesLegacyJournal: a state dir written by the journal
// layout is refused with a message naming the file to move aside.
func TestStoreRefusesLegacyJournal(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenStore(dir); err == nil || !strings.Contains(err.Error(), "move it") {
		t.Fatalf("legacy state dir opened with err = %v, want a move-aside refusal", err)
	}
}

// TestStoreWriteErrorIsStickyNotFatal drives the degraded-durability
// path with the chaos harness: an injected record-write failure is
// counted and retained (readiness turns unready), but later writes
// still go through — the service sheds durability, not availability.
func TestStoreWriteErrorIsStickyNotFatal(t *testing.T) {
	dir := t.TempDir()
	st, _ := reopen(t, dir)
	injected := errors.New("disk on fire")
	chaos.Arm("service.state.write", chaos.Action{Err: injected, Times: 1})
	defer chaos.Reset()

	st.Accepted(testRequest(t, 1)) // eaten by the failpoint
	if err := st.Err(); !errors.Is(err, injected) {
		t.Fatalf("sticky error = %v, want the injected failure", err)
	}
	if st.WriteErrs() != 1 {
		t.Fatalf("write errors = %d, want 1", st.WriteErrs())
	}

	// The failpoint disarmed itself (Times: 1): writes work again, the
	// sticky error remains.
	st.Accepted(testRequest(t, 2))
	if st.WriteErrs() != 1 {
		t.Fatalf("healthy write counted as error: %d", st.WriteErrs())
	}
	if st.Err() == nil {
		t.Fatal("sticky error cleared by a healthy write")
	}
}

// TestStoreReportWriteFailure: an injected blob-write failure must leave
// no done record vouching for bytes that never landed.
func TestStoreReportWriteFailure(t *testing.T) {
	dir := t.TempDir()
	st, _ := reopen(t, dir)
	req := testRequest(t, 1)
	st.Accepted(req)
	chaos.Arm("service.report.write", chaos.Action{Err: errors.New("blob write lost"), Times: 1})
	defer chaos.Reset()
	st.Finished(req, StateDone, "", []byte(`{}`), false)
	if st.Err() == nil {
		t.Fatal("blob failure not recorded")
	}

	_, rec := reopen(t, dir)
	// No done record: the job recovers from its accepted record (queued),
	// not as done-with-missing-blob.
	if len(rec.Jobs) != 1 || rec.Jobs[0].State != StateQueued {
		t.Fatalf("job after failed blob write recovers as %+v, want queued", rec.Jobs)
	}
}

// TestRecoveredQueueOverflowPersists: recovered queued jobs that overflow
// a shrunken queue are failed-by-crash on disk too, so a later boot with
// room in the queue does not silently re-queue jobs the service already
// reported as failed.
func TestRecoveredQueueOverflowPersists(t *testing.T) {
	dir := t.TempDir()
	st, _ := reopen(t, dir)
	reqs := []Request{testRequest(t, 1), testRequest(t, 2), testRequest(t, 3)}
	for _, req := range reqs {
		st.Accepted(req)
	}

	svc1, err := New(Config{StateDir: dir, QueueDepth: 1, Tables: smallTables(t)})
	if err != nil {
		t.Fatal(err)
	}
	if s := svc1.StatsSnapshot(); s.RecoveredRequeued != 1 || s.FailedByCrash != 2 {
		t.Fatalf("recovery with queue depth 1: requeued %d failed-by-crash %d, want 1/2",
			s.RecoveredRequeued, s.FailedByCrash)
	}
	var overflowed []string
	svc1.mu.Lock()
	for _, req := range reqs {
		if j := svc1.jobs[req.id()]; j.state == StateFailed && j.crashed {
			overflowed = append(overflowed, j.id)
		}
	}
	svc1.mu.Unlock()
	svc1.Close()
	if len(overflowed) != 2 {
		t.Fatalf("%d overflowed jobs failed-by-crash, want 2", len(overflowed))
	}

	svc2, err := New(Config{StateDir: dir, Tables: smallTables(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	svc2.mu.Lock()
	defer svc2.mu.Unlock()
	for _, id := range overflowed {
		if j := svc2.jobs[id]; j == nil || j.state != StateFailed || !j.crashed {
			t.Fatalf("overflowed job %s came back as %+v, want failed and crashed", id, j)
		}
	}
}
