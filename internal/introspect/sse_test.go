package introspect

import (
	"bufio"
	"bytes"
	"net/http"
	"strings"
	"testing"
	"time"

	"ladder/internal/metrics"
	"ladder/internal/metrics/promcheck"
)

// sseOpen subscribes to an SSE endpoint and returns a line reader over
// the stream plus a closer.
func sseOpen(t *testing.T, srv *Server, path string) (*bufio.Reader, func()) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://"+srv.Addr()+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	return bufio.NewReader(resp.Body), func() { resp.Body.Close() }
}

// subscribers reports the broker's current subscriber count.
func subscribers(b *Broker) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

func TestBrokerStreamsEvents(t *testing.T) {
	srv := newTestServer(t)
	b := NewBroker(-1) // no keepalives: the data frames are the test
	srv.Handle("/timeline/events", b)

	r, done := sseOpen(t, srv, "/timeline/events")
	defer done()
	// Subscription happens inside the handler goroutine; wait for it.
	for i := 0; i < 200 && subscribers(b) == 0; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if subscribers(b) != 1 {
		t.Fatal("subscriber never registered")
	}

	b.Publish([]byte(`{"epoch":1}`))
	b.Publish([]byte(`{"epoch":2}`))

	var frames []string
	for len(frames) < 2 {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended early: %v (got %v)", err, frames)
		}
		if strings.HasPrefix(line, "data: ") {
			frames = append(frames, strings.TrimSpace(strings.TrimPrefix(line, "data: ")))
		}
	}
	if frames[0] != `{"epoch":1}` || frames[1] != `{"epoch":2}` {
		t.Errorf("frames = %v", frames)
	}
}

func TestBrokerKeepalive(t *testing.T) {
	srv := newTestServer(t)
	b := NewBroker(20 * time.Millisecond)
	srv.Handle("/events", b)

	r, done := sseOpen(t, srv, "/events")
	defer done()
	// With no events published, keepalive comments must still flow.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no keepalive within 2s")
		}
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended: %v", err)
		}
		if strings.HasPrefix(line, ": keepalive") {
			return
		}
	}
}

func TestBrokerUnsubscribeOnDisconnect(t *testing.T) {
	srv := newTestServer(t)
	b := NewBroker(-1)
	srv.Handle("/events", b)

	_, done := sseOpen(t, srv, "/events")
	for i := 0; i < 200 && subscribers(b) == 0; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	done()
	for i := 0; i < 200 && subscribers(b) != 0; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if n := subscribers(b); n != 0 {
		t.Fatalf("%d subscribers after disconnect", n)
	}
	// Publishing with no subscribers is a no-op, and a nil broker is safe.
	b.Publish([]byte("x"))
	var nb *Broker
	nb.Publish([]byte("x"))
}

func TestPromHandlerServesExposition(t *testing.T) {
	srv := newTestServer(t)
	reg := metrics.NewRegistry()
	reg.Counter("fault.retries").Add(5)
	srv.Handle("/metrics/prom", PromHandler(func() (metrics.Snapshot, []metrics.PromLabel, []metrics.PromSample) {
		return reg.Snapshot(), []metrics.PromLabel{{Name: "run", Value: "test"}}, nil
	}))

	code, body := get(t, srv, "/metrics/prom")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics/prom = %d, want 200", code)
	}
	if !strings.Contains(body, `ladder_fault_retries_total{run="test"} 5`) {
		t.Errorf("exposition missing retry counter:\n%s", body)
	}
	if err := promcheck.Lint(bytes.NewReader([]byte(body))); err != nil {
		t.Errorf("served exposition fails lint: %v", err)
	}

	resp, err := http.Post("http://"+srv.Addr()+"/metrics/prom", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics/prom = %d, want 405", resp.StatusCode)
	}
}

// TestBrokerLastEventIDResume pins SSE resume: a client reconnecting
// with the standard Last-Event-ID header replays exactly the events it
// missed, in order, before rejoining the live stream.
func TestBrokerLastEventIDResume(t *testing.T) {
	srv := newTestServer(t)
	b := NewBroker(-1)
	srv.Handle("/timeline/events", b)

	b.Publish([]byte(`{"epoch":1}`))
	b.Publish([]byte(`{"epoch":2}`))
	b.Publish([]byte(`{"epoch":3}`))

	req, err := http.NewRequest(http.MethodGet, "http://"+srv.Addr()+"/timeline/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	type frame struct{ id, data string }
	var frames []frame
	cur := frame{}
	for len(frames) < 2 {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended early: %v (got %v)", err, frames)
		}
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimSpace(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimSpace(strings.TrimPrefix(line, "data: "))
			frames = append(frames, cur)
			cur = frame{}
		}
	}
	want := []frame{{"2", `{"epoch":2}`}, {"3", `{"epoch":3}`}}
	for i, w := range want {
		if frames[i] != w {
			t.Fatalf("replayed frames = %v, want %v", frames, want)
		}
	}
}

// TestBrokerDropsSlowSubscriber pins the backpressure policy: a
// subscriber that stops draining is dropped (its channel closes, its
// stream ends) once its buffer fills, and Publish never blocks on it.
func TestBrokerDropsSlowSubscriber(t *testing.T) {
	b := NewBroker(-1)
	ch, _ := b.subscribe(0)
	if subscribers(b) != 1 {
		t.Fatal("subscriber not registered")
	}
	// Fill the buffer and one more: the overflow publish must drop the
	// subscriber rather than block or silently skip forever.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < subBuffer+1; i++ {
			b.Publish([]byte("x"))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a slow subscriber")
	}
	if n := subscribers(b); n != 0 {
		t.Fatalf("slow subscriber still registered (%d)", n)
	}
	// The channel is closed after its buffered backlog: drain to the end.
	for i := 0; ; i++ {
		if _, open := <-ch; !open {
			break
		}
		if i > subBuffer {
			t.Fatal("channel never closed")
		}
	}
	// The events the drop lost are still in the replay ring.
	if got := b.LastEventID(); got != uint64(subBuffer+1) {
		t.Fatalf("LastEventID = %d, want %d", got, subBuffer+1)
	}
}

// TestBrokerHistoryRingBounded checks replay memory stays bounded: only
// the newest historySize events are retained for resume.
func TestBrokerHistoryRingBounded(t *testing.T) {
	b := NewBroker(-1)
	for i := 0; i < historySize+10; i++ {
		b.Publish([]byte("x"))
	}
	ch, replay := b.subscribe(0)
	defer b.unsubscribe(ch)
	if len(replay) != historySize {
		t.Fatalf("replay length = %d, want %d", len(replay), historySize)
	}
	if first := replay[0].id; first != 11 {
		t.Fatalf("oldest retained id = %d, want 11", first)
	}
}
