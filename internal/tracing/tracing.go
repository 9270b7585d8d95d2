// Package tracing records per-transaction lifecycle spans — the
// observability level below internal/metrics' aggregates. Where a
// histogram answers "what did RESET latency look like overall", a span
// answers "why did *this* write take 2632 cycles": it carries the
// enqueue, dispatch and completion cycle of one memory transaction, the
// resolved ⟨WL, BL, C_lrs⟩ timing-table bucket and programmed pulse
// latency, and whether the channel was in write-drain mode at dispatch.
// Core-stall episodes are recorded as spans too, so a Perfetto timeline
// shows the processor side starving against the memory side.
//
// Design constraints mirror package metrics, in order:
//
//   - Hot-path cost. A Collector is wired through the controller with a
//     single nil check per site; recording is a few stores into a ring
//     slot. The ring grows on demand up to its capacity, so a run pays
//     for the spans it samples rather than for the whole ring, and
//     nothing allocates once it is full. Spans never feed back into
//     simulation state, so enabling tracing cannot perturb golden
//     determinism.
//   - Bounded memory. Spans live in a ring of at most Capacity slots;
//     once it wraps, the oldest spans are overwritten (and counted as
//     evicted). Updates addressed to an evicted span are dropped via an
//     ID check, never misattributed to the slot's new tenant.
//   - Sampling. 1-in-N transaction sampling (deterministic, by arrival
//     order) keeps multi-minute runs tractable; N=1 traces everything.
//
// Exports: WriteChromeTrace emits the Chrome trace-event JSON loadable
// in Perfetto/chrome://tracing (one track per channel/bank and per
// core), WriteSlowestDigest prints the slowest-K traced writes, and
// Summary embeds the sampling accounting in run reports. See
// docs/TRACING.md.
package tracing

import (
	"fmt"
	"slices"
	"sort"

	"ladder/internal/jsonenc"
)

// Kind classifies a span.
type Kind uint8

const (
	// KindDataWrite is a processor data write through the write queue.
	KindDataWrite Kind = iota
	// KindMetaWrite is an LRS-metadata writeback or maintenance write.
	KindMetaWrite
	// KindDataRead is a processor demand read.
	KindDataRead
	// KindSMBRead is a stale-memory-block read (LADDER-Basic).
	KindSMBRead
	// KindMetaRead is an LRS-metadata line fill.
	KindMetaRead
	// KindCoreStall is a processor-side episode: the span covers the
	// cycles a core could not retire (MLP window full or queue rejection).
	KindCoreStall
	// KindWriteRetry is one program-and-verify reissue of a failed data
	// RESET (fault-injection runs): the span covers the escalated pulse,
	// while the original KindDataWrite span stays open across retries.
	KindWriteRetry
)

// kindJSON holds each kind's label as a quoted JSON string, the last
// entry for kinds without a label; String slices the quotes off.
var kindJSON = [...]string{
	KindDataWrite:      `"write"`,
	KindMetaWrite:      `"meta-write"`,
	KindDataRead:       `"read"`,
	KindSMBRead:        `"smb-read"`,
	KindMetaRead:       `"meta-read"`,
	KindCoreStall:      `"stall"`,
	KindWriteRetry:     `"write-retry"`,
	KindWriteRetry + 1: `"unknown"`,
}

// quoted returns the kind's label as a quoted JSON string.
func (k Kind) quoted() string {
	return kindJSON[min(int(k), len(kindJSON)-1)]
}

// String returns the kind's track label.
func (k Kind) String() string {
	q := k.quoted()
	return q[1 : len(q)-1]
}

// MarshalJSON serializes the kind as its label, keeping /spans and
// report output readable.
func (k Kind) MarshalJSON() ([]byte, error) { return []byte(k.quoted()), nil }

// Span is one recorded transaction lifecycle. Cycle fields are engine
// clock values (CPU cycles at 4 GHz, 4 ticks per nanosecond); bucket
// fields are timing-table coordinates, -1 when the dimension does not
// apply (reads, schemes without content knowledge).
type Span struct {
	// ID is the collector-assigned monotone identifier (never 0).
	ID   uint64 `json:"id"`
	Kind Kind   `json:"kind"`
	// Channel and Bank place memory transactions; both are -1 for core
	// spans. Bank is the global bank index within the channel.
	Channel int16 `json:"channel"`
	Bank    int16 `json:"bank"`
	// Core is the requesting core (demand reads, stalls); -1 otherwise.
	Core int16 `json:"core"`
	// Line is the line address (or metadata key for metadata traffic).
	Line uint64 `json:"line"`
	// Enqueue, Dispatch and Complete are the lifecycle cycle stamps.
	// Stall spans use Enqueue == Dispatch = episode start.
	Enqueue  uint64 `json:"enqueue_tick"`
	Dispatch uint64 `json:"dispatch_tick"`
	Complete uint64 `json:"complete_tick"`
	// LatNs is the programmed pulse latency for writes (0 for reads and
	// stalls; bank occupancy additionally includes tRCD/tBURST).
	LatNs float64 `json:"lat_ns"`
	// WLBucket, BLBucket and ClrsBucket are the resolved timing-table
	// cell of a dispatched write (-1 when unknown).
	WLBucket   int8 `json:"wl_bucket"`
	BLBucket   int8 `json:"bl_bucket"`
	ClrsBucket int8 `json:"clrs_bucket"`
	// Drain reports whether the channel was in write-drain mode at
	// dispatch.
	Drain bool `json:"drain"`

	// done marks a completed span; open spans are excluded from every
	// accessor and export.
	done bool
}

// QueueTicks returns the cycles spent waiting in a queue.
func (s *Span) QueueTicks() uint64 { return s.Dispatch - s.Enqueue }

// ServiceTicks returns the cycles from dispatch to completion.
func (s *Span) ServiceTicks() uint64 { return s.Complete - s.Dispatch }

// TotalTicks returns the enqueue-to-completion lifetime.
func (s *Span) TotalTicks() uint64 { return s.Complete - s.Enqueue }

// IsWrite reports whether the span is a data or metadata write — the
// population the slowest-writes digest ranks.
func (s *Span) IsWrite() bool { return s.Kind == KindDataWrite || s.Kind == KindMetaWrite }

// Config sizes a Collector.
type Config struct {
	// SampleEvery traces one in every N transactions (<=1 = all).
	SampleEvery int
	// Capacity is the most spans the ring holds (0 = 65536); the ring
	// grows to it on demand.
	Capacity int
	// SlowestK is how many slowest writes survive ring eviction for the
	// end-of-run digest (0 = 16; negative disables).
	SlowestK int
}

// DefaultCapacity is the span ring size when Config.Capacity is zero.
const DefaultCapacity = 65536

// DefaultSlowestK is the slowest-writes digest size when Config.SlowestK
// is zero.
const DefaultSlowestK = 16

// Collector accumulates spans for one simulation run. Like a metrics
// Registry it is single-goroutine on the record path (a run is
// single-threaded); every method is safe on a nil receiver, so
// un-traced embeddings pay one branch per site.
type Collector struct {
	sampleEvery uint64
	// ring holds span id at index (id-1) % capacity. It is appended to
	// until it holds capacity spans, then wraps; an append can move it,
	// so no *Span into it survives a Begin.
	ring     []Span
	capacity uint64

	seen      uint64 // transactions offered (sampling denominator)
	sampled   uint64 // spans begun
	completed uint64 // spans finished
	evicted   uint64 // ring slots overwritten while occupied

	nextID uint64

	// slowest keeps the K slowest completed writes by total lifetime,
	// sorted ascending, independent of ring eviction.
	slowest []Span
	k       int
}

// NewCollector builds a collector.
func NewCollector(cfg Config) *Collector {
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	k := cfg.SlowestK
	if k == 0 {
		k = DefaultSlowestK
	}
	if k < 0 {
		k = 0
	}
	return &Collector{
		sampleEvery: uint64(cfg.SampleEvery),
		capacity:    uint64(cfg.Capacity),
		k:           k,
		slowest:     make([]Span, 0, k),
	}
}

// SampleEvery returns the sampling period (0 on a nil receiver).
func (c *Collector) SampleEvery() int {
	if c == nil {
		return 0
	}
	return int(c.sampleEvery)
}

// Sampled returns the number of spans begun.
func (c *Collector) Sampled() uint64 {
	if c == nil {
		return 0
	}
	return c.sampled
}

// Begin offers one transaction to the collector and, when the sampling
// counter selects it, opens a span. The returned reference is 0 when the
// transaction was not sampled (or the receiver is nil); Dispatch/End
// ignore zero references, so call sites need no second branch.
func (c *Collector) Begin(kind Kind, channel, bank, core int, line uint64, now uint64) uint64 {
	if c == nil {
		return 0
	}
	c.seen++
	if c.seen%c.sampleEvery != 0 {
		return 0
	}
	c.nextID++
	id := c.nextID
	i := (id - 1) % c.capacity
	if i == uint64(len(c.ring)) {
		c.grow()
	} else {
		c.evicted++
	}
	c.ring[i] = Span{
		ID:         id,
		Kind:       kind,
		Channel:    int16(channel),
		Bank:       int16(bank),
		Core:       int16(core),
		Line:       line,
		Enqueue:    now,
		Dispatch:   now,
		WLBucket:   -1,
		BLBucket:   -1,
		ClrsBucket: -1,
	}
	c.sampled++
	return id
}

// grow adds one slot to a ring still filling, doubling its backing
// array when full but never past the capacity.
func (c *Collector) grow() {
	if len(c.ring) == cap(c.ring) {
		ring := make([]Span, len(c.ring), min(max(2*cap(c.ring), 64), int(c.capacity)))
		copy(ring, c.ring)
		c.ring = ring
	}
	c.ring = c.ring[:len(c.ring)+1]
}

// span resolves a reference, returning nil for unsampled, evicted or
// foreign references. The pointer is valid until the next Begin.
func (c *Collector) span(ref uint64) *Span {
	if c == nil || ref == 0 {
		return nil
	}
	i := (ref - 1) % c.capacity
	if i >= uint64(len(c.ring)) || c.ring[i].ID != ref {
		return nil
	}
	return &c.ring[i]
}

// Dispatch stamps a span's dispatch cycle and resolved write parameters:
// the programmed latency, the timing-table cell (pass -1 for dimensions
// without meaning) and the channel's drain mode.
func (c *Collector) Dispatch(ref uint64, now uint64, latNs float64, wl, bl, clrs int, drain bool) {
	s := c.span(ref)
	if s == nil {
		return
	}
	s.Dispatch = now
	s.LatNs = latNs
	s.WLBucket, s.BLBucket, s.ClrsBucket = int8(wl), int8(bl), int8(clrs)
	s.Drain = drain
}

// End completes a span at the given cycle. Completed writes additionally
// compete for the slowest-K digest.
func (c *Collector) End(ref uint64, now uint64) {
	s := c.span(ref)
	if s == nil {
		return
	}
	s.Complete = now
	s.done = true
	c.completed++
	if c.k > 0 && s.IsWrite() {
		c.offerSlowest(*s)
	}
}

// offerSlowest inserts a completed write into the ascending slowest-K
// list, evicting the quickest when full. K is small, so insertion into a
// sorted slice beats heap bookkeeping.
func (c *Collector) offerSlowest(s Span) {
	d := s.TotalTicks()
	if len(c.slowest) == c.k {
		if d <= c.slowest[0].TotalTicks() {
			return
		}
		// Evict the quickest by shifting down in place: reslicing off the
		// front would walk the slice along its backing array and force the
		// append below to reallocate once the spare capacity runs out.
		copy(c.slowest, c.slowest[1:])
		c.slowest = c.slowest[:c.k-1]
	}
	i := sort.Search(len(c.slowest), func(i int) bool { return c.slowest[i].TotalTicks() > d })
	c.slowest = append(c.slowest, Span{})
	copy(c.slowest[i+1:], c.slowest[i:])
	c.slowest[i] = s
}

// Slowest returns the slowest completed writes, slowest first.
func (c *Collector) Slowest() []Span {
	if c == nil {
		return nil
	}
	out := make([]Span, len(c.slowest))
	for i, s := range c.slowest {
		out[len(out)-1-i] = s
	}
	return out
}

// Recent returns the newest n completed spans, oldest first. It walks
// back from the newest id, so it copies at most n spans, not the ring.
func (c *Collector) Recent(n int) []Span {
	if c == nil {
		return nil
	}
	out := make([]Span, 0, min(max(n, 0), len(c.ring)))
	for id := c.nextID; id >= c.oldestID() && len(out) < cap(out); id-- {
		if s := &c.ring[(id-1)%c.capacity]; s.ID == id && s.done {
			out = append(out, *s)
		}
	}
	slices.Reverse(out)
	return out
}

// oldestID is the id of the oldest span the ring can still hold.
func (c *Collector) oldestID() uint64 {
	if c.nextID > c.capacity {
		return c.nextID - c.capacity + 1
	}
	return 1
}

// eachDone visits resident completed spans in ID (arrival) order.
func (c *Collector) eachDone(fn func(*Span)) {
	for id := c.oldestID(); id <= c.nextID; id++ {
		s := &c.ring[(id-1)%c.capacity]
		if s.ID == id && s.done {
			fn(s)
		}
	}
}

// Summary is the report-embedded accounting of one traced run.
type Summary struct {
	// SampleEvery is the 1-in-N sampling period.
	SampleEvery int `json:"sample_every"`
	// Seen counts transactions offered; Sampled of those got spans;
	// Completed of those finished; Evicted were overwritten by ring wrap.
	Seen      uint64 `json:"seen"`
	Sampled   uint64 `json:"sampled"`
	Completed uint64 `json:"completed"`
	Evicted   uint64 `json:"evicted"`
	// Slowest lists the slowest traced writes, slowest first.
	Slowest []Span `json:"slowest,omitempty"`
}

// AppendJSON appends the summary as the object encoding/json makes of
// it: fields in struct order, Slowest omitted when empty.
func (s *Summary) AppendJSON(e *jsonenc.Encoder) {
	e.Open('{')
	e.Key("sample_every").Int(int64(s.SampleEvery))
	e.Key("seen").Uint(s.Seen)
	e.Key("sampled").Uint(s.Sampled)
	e.Key("completed").Uint(s.Completed)
	e.Key("evicted").Uint(s.Evicted)
	if len(s.Slowest) > 0 {
		e.Key("slowest").Open('[')
		for i := range s.Slowest {
			s.Slowest[i].appendJSON(e.Elem())
		}
		e.Close(']')
	}
	e.Close('}')
}

// appendJSON appends the span's exported fields in struct order.
func (s *Span) appendJSON(e *jsonenc.Encoder) {
	e.Open('{')
	e.Key("id").Uint(s.ID)
	e.Key("kind").String(s.Kind.String())
	e.Key("channel").Int(int64(s.Channel))
	e.Key("bank").Int(int64(s.Bank))
	e.Key("core").Int(int64(s.Core))
	e.Key("line").Uint(s.Line)
	e.Key("enqueue_tick").Uint(s.Enqueue)
	e.Key("dispatch_tick").Uint(s.Dispatch)
	e.Key("complete_tick").Uint(s.Complete)
	e.Key("lat_ns").Float(s.LatNs)
	e.Key("wl_bucket").Int(int64(s.WLBucket))
	e.Key("bl_bucket").Int(int64(s.BLBucket))
	e.Key("clrs_bucket").Int(int64(s.ClrsBucket))
	e.Key("drain").Bool(s.Drain)
	e.Close('}')
}

// Summary freezes the collector's accounting.
func (c *Collector) Summary() Summary {
	if c == nil {
		return Summary{}
	}
	return Summary{
		SampleEvery: int(c.sampleEvery),
		Seen:        c.seen,
		Sampled:     c.sampled,
		Completed:   c.completed,
		Evicted:     c.evicted,
		Slowest:     c.Slowest(),
	}
}

// cell formats the resolved timing-table coordinate.
func (s *Span) cell() string {
	if s.WLBucket < 0 {
		return "-"
	}
	if s.ClrsBucket < 0 {
		return fmt.Sprintf("⟨%d,%d,-⟩", s.WLBucket, s.BLBucket)
	}
	return fmt.Sprintf("⟨%d,%d,%d⟩", s.WLBucket, s.BLBucket, s.ClrsBucket)
}
