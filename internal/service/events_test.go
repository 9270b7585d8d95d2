package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ladder/internal/core"
	"ladder/internal/sim"
	"ladder/internal/trace"
)

// gateSchemeName is the baseline policy built behind a test hook, so a
// test can hold a running job at a chosen grid cell.
const gateSchemeName = "test-service-gate"

// gateHook, when set, runs on every build of the gate scheme, once per
// channel of a cell, with the cell's environment.
var gateHook atomic.Pointer[func(*core.Env)]

func registerGateScheme() {
	if _, err := core.SchemeName(gateSchemeName); err == nil {
		return
	}
	core.RegisterScheme(gateSchemeName, func(env *core.Env, _ core.MetaCacheConfig) (core.Scheme, error) {
		if f := gateHook.Load(); f != nil {
			(*f)(env)
		}
		return core.NewBaseline(env), nil
	})
}

// sseFrame is one event of a job's stream.
type sseFrame struct {
	id uint64
	st Status
}

// openEvents opens a job's event stream, resuming after lastEventID
// when it is not empty.
func openEvents(t *testing.T, url, lastEventID string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET %s = %d, want 200", url, resp.StatusCode)
	}
	return resp
}

// readFrames reads up to max frames (0 = until the stream ends) within
// a minute.
func readFrames(t *testing.T, resp *http.Response, max int) []sseFrame {
	t.Helper()
	deadline := time.AfterFunc(time.Minute, func() { resp.Body.Close() })
	defer deadline.Stop()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var frames []sseFrame
	var cur sseFrame
	for (max == 0 || len(frames) < max) && sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "id: "); ok {
			id, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("bad event id %q", v)
			}
			cur.id = id
		} else if v, ok := strings.CutPrefix(line, "data: "); ok {
			if err := json.Unmarshal([]byte(v), &cur.st); err != nil {
				t.Fatalf("decoding event %q: %v", v, err)
			}
			frames = append(frames, cur)
			cur = sseFrame{}
		}
	}
	return frames
}

// TestEventStreamResumeReplaysGap pins the one slow-consumer rule: a
// client that stops reading while a running job publishes more events
// than a subscriber buffer holds (64), then reconnects with its last
// event ID while the job still runs, gets every later event in order,
// with consecutive IDs, through the terminal status.
func TestEventStreamResumeReplaysGap(t *testing.T) {
	registerGateScheme()
	// The job runs its cells one at a time, 8 per workload with the gate
	// cell last, so the 10th gate cell starts 72 cells after the first.
	// Each holds the job at its first channel's build until the test
	// releases it. A cell starts only after the previous one finished,
	// so the hook's counters need no lock.
	const secondGate = 10
	var (
		gates   int
		lastEnv *core.Env
	)
	held, release, done := make(chan struct{}, 1), make(chan struct{}), make(chan struct{})
	hold := func(env *core.Env) {
		if env == lastEnv {
			return // a later channel of the same cell
		}
		lastEnv = env
		if gates++; gates == 1 || gates == secondGate {
			held <- struct{}{}
			select {
			case <-release:
			case <-done:
			}
		}
	}
	gateHook.Store(&hold)
	defer gateHook.Store(nil)
	waitHeld := func() {
		t.Helper()
		select {
		case <-held:
		case <-time.After(time.Minute):
			t.Fatal("job never reached the gate")
		}
	}

	_, ts := newTestService(t, Config{Jobs: 1, SSEKeepalive: -1})
	t.Cleanup(func() { close(done) }) // before the service closes: a held grid cannot unwind
	req := Request{
		Workloads: trace.AllWorkloads(),
		Schemes:   append(sim.FigureSchemes(), gateSchemeName),
		Instr:     500, Seed: 7,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	_, sub := postJob(t, ts.URL, string(body))
	url := ts.URL + "/jobs/" + sub.ID + "/events"
	waitHeld()

	first := openEvents(t, url, "")
	seen := readFrames(t, first, 1)
	if len(seen) != 1 {
		t.Fatal("no current-state frame")
	}
	last := seen[0].id

	// Read nothing while the job runs on, through more events than a
	// subscriber buffer holds, to the next gate.
	release <- struct{}{}
	waitHeld()
	first.Body.Close()

	resumed := openEvents(t, url, strconv.FormatUint(last, 10))
	defer resumed.Body.Close()
	release <- struct{}{}
	frames := readFrames(t, resumed, 0)
	if len(frames) <= 64 {
		t.Fatalf("resumed stream carried %d events, want more than a subscriber buffer", len(frames))
	}
	for i, f := range frames {
		if f.id != last+1+uint64(i) {
			t.Fatalf("event %d has id %d after id %d, want consecutive ids", i, f.id, last+uint64(i))
		}
	}
	if end := frames[len(frames)-1].st; end.State != StateDone || end.Done != end.Total {
		t.Fatalf("stream ended at %+v, want the done status", end)
	}
}

// TestEventStreamAfterRestart resumes a finished job's stream on a
// restarted durable service with an event ID seen before the restart:
// the stream must carry the terminal status, not end empty.
func TestEventStreamAfterRestart(t *testing.T) {
	dir := t.TempDir()
	svc1, err := New(Config{StateDir: dir, Tables: smallTables(t)})
	if err != nil {
		t.Fatalf("starting durable service: %v", err)
	}
	ts1, stop1 := startService(t, svc1)
	_, sub := postJob(t, ts1, `{"workloads":["astar"],"schemes":["Baseline"],"instr":2000,"seed":7}`)
	if st := waitTerminal(t, ts1, sub.ID); st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	resp := openEvents(t, ts1+"/jobs/"+sub.ID+"/events", "")
	defer resp.Body.Close()
	before := readFrames(t, resp, 0)
	if len(before) == 0 || before[len(before)-1].st.State != StateDone {
		t.Fatalf("finished job's stream = %+v, want its done status", before)
	}
	stop1()

	svc2, err := New(Config{StateDir: dir, Tables: smallTables(t)})
	if err != nil {
		t.Fatalf("recovering service: %v", err)
	}
	ts2, _ := startService(t, svc2)
	lastID := strconv.FormatUint(before[len(before)-1].id, 10)
	resp = openEvents(t, ts2+"/jobs/"+sub.ID+"/events", lastID)
	defer resp.Body.Close()
	after := readFrames(t, resp, 0)
	if len(after) == 0 || after[len(after)-1].st.State != StateDone {
		t.Fatalf("stream resumed after the restart with Last-Event-ID %s = %+v, want the done status", lastID, after)
	}
}
