package introspect

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// subBuffer is each SSE subscriber's channel depth; a subscriber whose
// connection stalls past it is dropped (its stream ends) rather than
// stalling the publisher — it reconnects with Last-Event-ID and replays
// what it missed from the broker's history ring.
const subBuffer = 64

// DefaultSSEKeepalive is the comment-frame cadence for idle SSE
// streams. Proxies and load balancers reap silent connections; a
// keepalive comment every few seconds keeps the stream open without
// delivering any event to the client's handler.
const DefaultSSEKeepalive = 15 * time.Second

// historySize bounds the broker's event-replay ring: a reconnecting
// subscriber can resume across at most this many missed events before
// the gap is simply lost (it then restarts from the live stream).
const historySize = 256

// event is one published body stamped with its broker-assigned ID.
type event struct {
	id   uint64
	body []byte
}

// Broker fans published events out to Server-Sent-Events subscribers:
// the live half of the timeline endpoint (each closed epoch streams to
// every watcher) and each service job's status stream.
//
// Delivery is hardened against slow consumers in both directions:
// Publish never blocks — a subscriber whose buffer fills is dropped
// (its stream ends) instead of stalling the publisher or silently
// losing interior events — and every frame carries an "id:" field, so
// a dropped or disconnected client that reconnects with the standard
// Last-Event-ID header replays the events it missed from a bounded
// history ring before rejoining the live stream.
type Broker struct {
	keepalive time.Duration

	mu     sync.Mutex
	subs   map[chan event]struct{}
	hist   []event // ring of the last historySize events, oldest first
	nextID uint64  // next event ID to assign (IDs start at 1)
	closed bool
}

// NewBroker returns a broker sending keepalive comments at the given
// cadence (0 = DefaultSSEKeepalive, negative = disabled).
func NewBroker(keepalive time.Duration) *Broker {
	if keepalive == 0 {
		keepalive = DefaultSSEKeepalive
	}
	return &Broker{keepalive: keepalive, subs: make(map[chan event]struct{})}
}

// Publish sends one event body (pre-marshaled JSON, no framing) to
// every subscriber, non-blocking: a subscriber whose buffer is full is
// dropped — its channel closes, ending its stream — so one stalled
// client can neither block the publisher nor accumulate unbounded
// backlog. The event enters the replay ring regardless, so the dropped
// client recovers it by reconnecting with Last-Event-ID. Safe on a nil
// broker and from any goroutine; a no-op after Close.
func (b *Broker) Publish(body []byte) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.nextID++
	ev := event{id: b.nextID, body: body}
	b.hist = append(b.hist, ev)
	if len(b.hist) > historySize {
		b.hist = b.hist[len(b.hist)-historySize:]
	}
	for ch := range b.subs {
		select {
		case ch <- ev:
		default:
			delete(b.subs, ch)
			close(ch)
		}
	}
}

// Close ends the feed at its last published event. Every live stream
// ends once it has delivered that event, the ring keeps only it, and
// any later client is sent it alone, whatever its Last-Event-ID, before
// its stream ends: a finished feed's stream is its final state. Safe on
// a nil broker.
func (b *Broker) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	if n := len(b.hist); n > 0 {
		b.hist = []event{b.hist[n-1]}
	}
	for ch := range b.subs {
		delete(b.subs, ch)
		close(ch)
	}
}

// LastEventID reports the most recently assigned event ID (0 before the
// first publish).
func (b *Broker) LastEventID() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nextID
}

// subscribe registers a subscriber and atomically computes its replay:
// every retained event with ID greater than after, so a resuming client
// misses nothing between its last-seen event and the live stream. On a
// closed broker the replay is the final event and the channel is
// already closed.
func (b *Broker) subscribe(after uint64) (chan event, []event) {
	ch := make(chan event, subBuffer)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		close(ch)
		return ch, b.hist
	}
	b.subs[ch] = struct{}{}
	var replay []event
	for _, ev := range b.hist {
		if ev.id > after {
			replay = append(replay, ev)
		}
	}
	return ch, replay
}

// unsubscribe removes a subscriber that is going away on its own. The
// channel is left to the garbage collector: only Publish (to signal a
// drop) and Close close channels, each after removing the subscriber
// under the lock, so there is no double-close race.
func (b *Broker) unsubscribe(ch chan event) {
	b.mu.Lock()
	delete(b.subs, ch)
	b.mu.Unlock()
}

// ServeHTTP streams the broker's events as text/event-stream: one
// "id:" + "data:" frame per published body, a ": keepalive" comment on
// every idle keepalive period, until the client disconnects, falls far
// enough behind to be dropped, or the broker closes. A request carrying
// the standard Last-Event-ID header resumes after that event, replaying
// missed events from the history ring first; one without it (or with a
// malformed one) replays the whole ring.
func (b *Broker) ServeHTTP(w http.ResponseWriter, r *http.Request) { b.serve(w, r, false) }

// ServeLatest is ServeHTTP for a feed whose newest event is its current
// state, such as a job's status: a client without a Last-Event-ID, or
// with one this broker never issued (say, from before a restart),
// starts at the newest event instead of the whole ring.
func (b *Broker) ServeLatest(w http.ResponseWriter, r *http.Request) { b.serve(w, r, true) }

func (b *Broker) serve(w http.ResponseWriter, r *http.Request, latest bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	after, err := strconv.ParseUint(r.Header.Get("Last-Event-ID"), 10, 64)
	if err != nil {
		after = 0
	}
	if latest {
		if last := b.LastEventID(); err != nil || after > last {
			// Events published after last are replayed too: none is skipped.
			after = max(last, 1) - 1
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ch, replay := b.subscribe(after)
	defer b.unsubscribe(ch)
	for _, ev := range replay {
		writeSSE(w, ev)
	}
	if len(replay) > 0 {
		fl.Flush()
	}

	var keep <-chan time.Time
	if b.keepalive > 0 {
		t := time.NewTicker(b.keepalive)
		defer t.Stop()
		keep = t.C
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				// Closed, or dropped for falling behind: end the stream so
				// the client reconnects with Last-Event-ID and replays the gap.
				return
			}
			writeSSE(w, ev)
			fl.Flush()
		case <-keep:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		}
	}
}

// writeSSE frames one event: its ID line then its data line.
func writeSSE(w http.ResponseWriter, ev event) {
	fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.id, ev.body)
}
