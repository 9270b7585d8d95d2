// Package memctrl implements the per-channel ReRAM memory controller: a
// 32-entry read queue and 64-entry write queue, read-priority scheduling
// with write draining above an 85% high watermark (paper Table 2), bank
// timing, and the device-side datapath (Flip-N-Write bridge). It drives a
// core.Scheme to obtain per-write RESET latencies and to maintain the
// LRS-metadata machinery.
//
// A controller counts the run's traffic, latency and FNW accounting into
// the env's metrics.Registry; Instrument adds queue-occupancy gauges,
// drain-mode counters, and a per-RESET latency histogram attributed to
// timing-table cells — the observable form of the paper's Figure 11
// latency surface. See docs/METRICS.md for the catalog.
package memctrl

import (
	"fmt"
	"math"
	mathbits "math/bits"

	"ladder/internal/bits"
	"ladder/internal/core"
	"ladder/internal/energy"
	"ladder/internal/engine"
	"ladder/internal/fault"
	"ladder/internal/metrics"
	"ladder/internal/recycle"
	"ladder/internal/remap"
	"ladder/internal/reram"
	"ladder/internal/timing"
	"ladder/internal/tracing"
)

// TicksPerNs is the simulation resolution: 4 ticks per nanosecond, i.e.
// one tick per CPU cycle at 4 GHz.
const TicksPerNs = 4

// Config sizes the controller (paper Table 2).
type Config struct {
	// RDQSize and WRQSize bound the read and write queues.
	RDQSize, WRQSize int
	// WriteHighFrac is the write-queue occupancy that triggers write
	// drain mode (0.85).
	WriteHighFrac float64
	// WriteLowEntries is the occupancy at which drain mode ends.
	WriteLowEntries int
	// TRCD, TCL, TBurst are fixed timing components in ticks.
	TRCD, TCL, TBurst int
}

// DefaultConfig returns the paper's controller configuration: tRCD = tCL
// = 13.75 ns, tBURST = 5 ns, 85% write switching threshold.
func DefaultConfig() Config {
	return Config{
		RDQSize:         32,
		WRQSize:         64,
		WriteHighFrac:   0.85,
		WriteLowEntries: 16,
		TRCD:            55,
		TCL:             55,
		TBurst:          20,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.RDQSize <= 0 || c.WRQSize <= 0:
		return fmt.Errorf("memctrl: queue sizes must be positive")
	case c.WriteHighFrac <= 0 || c.WriteHighFrac > 1:
		return fmt.Errorf("memctrl: WriteHighFrac %v out of (0,1]", c.WriteHighFrac)
	case c.WriteLowEntries < 0 || float64(c.WriteLowEntries) >= c.WriteHighFrac*float64(c.WRQSize):
		return fmt.Errorf("memctrl: low watermark %d must sit below the high watermark", c.WriteLowEntries)
	case c.TRCD < 0 || c.TCL < 0 || c.TBurst < 0:
		return fmt.Errorf("memctrl: timing components must be non-negative")
	}
	return nil
}

// ReadKind classifies read-queue entries (the paper extends each entry
// with a type flag).
type ReadKind int

const (
	// ReadData is a processor demand read.
	ReadData ReadKind = iota
	// ReadSMB is a stale-memory-block read issued for LADDER-Basic.
	ReadSMB
	// ReadMeta is an LRS-metadata line read.
	ReadMeta
)

// ReadReq is one read-queue entry.
type ReadReq struct {
	Kind ReadKind
	// Line is the data line address (ReadData/ReadSMB) or the metadata
	// key (ReadMeta).
	Line uint64
	Loc  reram.Location
	// Core identifies the requesting core for demand reads.
	Core int
	// Target is the write whose enqueue issued this SMB read.
	Target *core.WriteRequest
	// EnqueueTick timestamps arrival.
	EnqueueTick uint64
	// TraceRef is the entry's tracing span reference (0 when unsampled).
	TraceRef uint64
}

// busyOp is an operation occupying a bank.
type busyOp struct {
	finish uint64
	// ins numbers the op's entry into the in-flight list; among ops with
	// equal finish it is the completion order.
	ins   uint64
	bank  int
	read  *ReadReq
	write *core.WriteRequest
	latNs float64
	// retryRef is the tracing span of the escalated reissue pulse this op
	// represents (0 for first-attempt pulses). The original write span
	// stays open across the whole program-and-verify sequence.
	retryRef uint64
}

// pick is one bank's candidate in a dispatch merge: its queue entry
// under consideration, the entry before it in the bank's FIFO, and the
// entry's arrival number.
type pick struct {
	bank      int
	prev, idx int32
	seq       uint64
}

// maxBanks is the bank-mask width: a channel's banks are bits of a
// uint64.
const maxBanks = 64

// ReadDoneFunc is invoked when a demand read's data returns.
type ReadDoneFunc func(req *ReadReq, now uint64)

// storage is a controller's memory: its queues, its in-flight list, its
// scratch and its recycled requests. Recycle hands it to the next
// NewController (storages), so a warm process builds controllers and
// runs their transactions without allocating.
type storage struct {
	// reads and writes are the RDQ and WRQ, one FIFO per bank (index
	// rank × BanksPerRank + bank). Dispatch merges the free banks' FIFOs
	// by arrival number, which visits entries in exactly the order one
	// arrival-ordered queue would.
	reads      bankQueue[*ReadReq]
	writes     bankQueue[*core.WriteRequest]
	picks      []pick               // dispatch-merge scratch, one per bank
	auxPending []*ReadReq           // aux reads awaiting RDQ space
	wbPending  []*core.WriteRequest // metadata writebacks awaiting WRQ space

	// inflight holds the operations in flight ordered by (finish, ins).
	// A tick completes the due head of the list; due is its scratch.
	inflight []busyOp
	due      []busyOp

	// freeReads/freeWrites recycle request objects: the controller retires
	// requests strictly after their last reference drops (reads at
	// delivery, writes after scheme completion), so the steady state
	// allocates nothing per transaction.
	freeReads  []*ReadReq
	freeWrites []*core.WriteRequest
}

// storages keeps recycled controller storage.
var storages = recycle.NewPool[storage]()

// reset empties st for a controller with the given queue bounds and
// banks. Recycled requests stay: newReadReq and newWriteReq reset them.
func (st *storage) reset(cfg Config, banks int) {
	st.reads.reset(cfg.RDQSize, banks)
	st.writes.reset(cfg.WRQSize, banks)
	st.auxPending, st.wbPending = st.auxPending[:0], st.wbPending[:0]
	// Dispatch merges at most one pick per bank, and at most one op per
	// bank is in flight, so these never grow.
	if cap(st.picks) < banks {
		st.picks = make([]pick, 0, banks)
		st.inflight, st.due = make([]busyOp, 0, banks), make([]busyOp, 0, banks)
	}
	st.picks, st.inflight, st.due = st.picks[:0], st.inflight[:0], st.due[:0]
}

// Controller is one channel's memory controller.
type Controller struct {
	cfg    Config
	env    *core.Env
	scheme core.Scheme
	meter  *energy.Meter

	// storage holds the queues, the in-flight list and the recycled
	// requests; mem is where Recycle returns it (nil once recycled).
	storage
	mem *storage

	writeMode  bool
	drainAt    int // write-queue length that enters drain mode
	onReadDone ReadDoneFunc

	// busy has bit b set while bank b has an operation in flight: from
	// its dispatch to its completion, which Tick processes at the finish
	// tick before it dispatches anything.
	busy uint64

	// insertions counts entries into the in-flight list.
	insertions uint64

	// nextFinish is the earliest in-flight finish, the head of inflight
	// (Horizon with nothing in flight).
	nextFinish uint64
	// quiet marks a controller whose last full tick completed, moved
	// and dispatched nothing. Until an enqueue clears it or nextFinish
	// arrives, every tick would repeat that no-op, so Tick skips it.
	quiet bool

	// dec, when set, is the programmable address decoder: the single
	// logical→physical resolution point on the access path (vertical
	// wear leveling applies here — the paper places wear-leveling
	// translation before LADDER, Figure 18a — and spare-row indirection
	// penalties are charged through it at dispatch).
	dec *remap.Decoder

	// inj, when set, injects write faults at pulse completion and drives
	// the program-and-verify retry loop. Nil keeps the datapath untouched
	// (one pointer test per write completion).
	inj *fault.Injector
	// faultErr latches the first unrecoverable fault (spare-row pool
	// exhaustion); the simulation aborts on it.
	faultErr error

	banksPerRank int
	run          core.Instruments // run-level counts, shared by every channel

	// Per-channel observability instruments (nil until Instrument is
	// called; every observation method is nil-safe). See docs/METRICS.md
	// for the catalog.
	instrumented bool
	mRDQOcc      *metrics.Gauge     // sampled read-queue occupancy
	mWRQOcc      *metrics.Gauge     // sampled write-queue occupancy
	mDrains      *metrics.Counter   // write-drain-mode entries
	mResetHist   *metrics.Histogram // per-data-RESET latency (ns)
	mResetCells  *metrics.Grid      // RESETs per timing-table (WL,BL) cell
	mMetaIssued  *metrics.Counter   // metadata/maintenance writes issued
	mRetryHist   *metrics.Histogram // escalated reissue-pulse latency (ns)

	// tr, when set, records sampled transaction-lifecycle spans (see
	// package tracing). Nil keeps the hot path at one pointer test per
	// enqueue/dispatch/complete.
	tr        *tracing.Collector
	trChannel int
}

// occupancySampleMask thins queue-occupancy sampling to one observation
// every 256 ticks (64 ns): dense enough to catch drain episodes, cheap
// enough to leave the per-tick cost unmeasurable.
const occupancySampleMask = 255

// ResetLatencyBounds returns the bucket upper edges for RESET-latency
// histograms: 32 ns resolution across the paper's 29–658 ns tWR window
// (Section 2; Figure 7 plots this distribution), plus an overflow bucket
// for shrunk-range or custom-crossbar runs that exceed it.
func ResetLatencyBounds() []float64 { return metrics.LinearBounds(32, 32, 21) }

// Instrument creates the controller's per-channel instruments in the
// env's registry as channel `channel`. Call once, before the first Tick;
// a controller never instrumented records only the run-level counts.
func (c *Controller) Instrument(channel int) {
	reg := c.env.Metrics
	p := fmt.Sprintf("memctrl.ch%d.", channel)
	c.instrumented = true
	c.mRDQOcc = reg.Gauge(p + "rdq_occupancy")
	c.mWRQOcc = reg.Gauge(p + "wrq_occupancy")
	c.mDrains = reg.Counter(p + "drain_entries")
	c.mResetHist = reg.Histogram(p+"reset_latency_ns", ResetLatencyBounds())
	c.mResetCells = reg.Grid(p+"reset_table_cells", timing.Buckets, timing.Buckets)
	c.mMetaIssued = reg.Counter(p + "meta_writes_issued")
	if c.inj != nil {
		c.mRetryHist = reg.Histogram(p+"retry_latency_ns", ResetLatencyBounds())
	}
}

// SetFaults attaches a write-fault injector; call before Instrument so
// the retry-latency histogram is created (the injector counts its own
// verdicts and retries). Nil (the default) disables injection entirely
// and leaves the write datapath cycle-identical to a fault-free build.
func (c *Controller) SetFaults(inj *fault.Injector) { c.inj = inj }

// Err returns the first unrecoverable fault error (spare-row pool
// exhaustion), or nil. The simulation loop checks it after every tick
// and surfaces it through sim.Run.
func (c *Controller) Err() error { return c.faultErr }

// Trace attaches a span collector, attributing this controller's
// transactions to channel `channel`. Call before the first Tick; a nil
// collector leaves tracing off.
func (c *Controller) Trace(tr *tracing.Collector, channel int) {
	c.tr = tr
	c.trChannel = channel
}

// SetDecoder installs the programmable address decoder applied to
// decoded data addresses (wear-leveling rotation at enqueue, spare-row
// penalties at dispatch). Nil (the default) keeps the identity mapping.
func (c *Controller) SetDecoder(d *remap.Decoder) { c.dec = d }

// decode resolves a line address through the optional address decoder.
// It runs once per request, at enqueue; every later step (the scheme,
// the store, completion and verify) uses the Location it returns.
func (c *Controller) decode(line uint64) (reram.Location, error) {
	loc, err := c.env.Geom.Decode(line)
	if err != nil {
		return loc, err
	}
	if c.dec != nil {
		loc, _ = c.dec.Resolve(loc)
	}
	return loc, nil
}

// EnqueueMaintenance queues a device-maintenance write (e.g. a wear-
// leveling segment migration): it occupies a bank like a metadata write
// but carries no scheme state.
func (c *Controller) EnqueueMaintenance(loc reram.Location, now uint64) {
	req := c.newWriteReq()
	req.Loc = loc
	req.IsMeta = true
	req.EnqueueCycle = now
	req.Clrs = -1
	if c.tr != nil {
		req.TraceRef = c.tr.Begin(tracing.KindMetaWrite, c.trChannel, c.bankOf(loc), -1, 0, now)
	}
	c.wbPending = append(c.wbPending, req)
	c.quiet = false
}

// NewController builds a controller over the shared environment, which
// must carry the run's metrics registry. The scheme instance must be
// dedicated to this controller (it owns a private metadata cache).
func NewController(cfg Config, env *core.Env, scheme core.Scheme, meter *energy.Meter, onReadDone ReadDoneFunc) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if env.Metrics == nil {
		return nil, fmt.Errorf("memctrl: controller needs a metrics registry (Env.Metrics is nil)")
	}
	nBanks := env.Geom.RanksPerChannel * env.Geom.BanksPerRank
	if nBanks > maxBanks {
		return nil, fmt.Errorf("memctrl: %d banks per channel exceed the controller's %d-bit bank masks", nBanks, maxBanks)
	}
	c := &Controller{
		cfg:          cfg,
		env:          env,
		scheme:       scheme,
		meter:        meter,
		drainAt:      int(math.Ceil(cfg.WriteHighFrac * float64(cfg.WRQSize))),
		nextFinish:   engine.Horizon,
		onReadDone:   onReadDone,
		banksPerRank: env.Geom.BanksPerRank,
		run:          core.NewInstruments(env.Metrics),
	}
	c.adopt(storages.Get())
	return c, nil
}

// adopt makes mem, emptied, the storage of a controller that has
// dispatched nothing yet.
func (c *Controller) adopt(mem *storage) {
	mem.reset(c.cfg, c.env.Geom.RanksPerChannel*c.banksPerRank)
	c.storage, c.mem = *mem, mem
}

// Recycle hands the controller's storage back for a later NewController
// to reuse. The controller must not be used again: it keeps no queue, so
// an enqueue panics, as does any call that reaches its environment or
// scheme. Requests it delivered (a ReadDoneFunc's argument) are recycled
// too and must not be retained.
func (c *Controller) Recycle() {
	if c.mem != nil {
		storages.Put(c.takeStorage())
	}
}

// takeStorage returns the controller's storage, leaving the controller
// recycled.
func (c *Controller) takeStorage() *storage {
	mem := c.mem
	*mem = c.storage
	c.storage, c.mem = storage{}, nil
	c.env, c.scheme, c.meter = nil, nil, nil
	return mem
}

func (c *Controller) bankOf(loc reram.Location) int {
	return loc.Rank*c.banksPerRank + loc.Bank
}

// newReadReq takes a zeroed read request from the freelist.
func (c *Controller) newReadReq() *ReadReq {
	if n := len(c.freeReads); n > 0 {
		r := c.freeReads[n-1]
		c.freeReads = c.freeReads[:n-1]
		*r = ReadReq{}
		return r
	}
	return &ReadReq{}
}

// newWriteReq takes a zeroed write request from the freelist, keeping the
// MetaKeys backing array so scheme key derivation stays allocation-free.
func (c *Controller) newWriteReq() *core.WriteRequest {
	if n := len(c.freeWrites); n > 0 {
		req := c.freeWrites[n-1]
		c.freeWrites = c.freeWrites[:n-1]
		keys := req.MetaKeys[:0]
		*req = core.WriteRequest{MetaKeys: keys}
		return req
	}
	return &core.WriteRequest{}
}

// ReadQueueLen and WriteQueueLen expose occupancies (testing/diagnostics).
func (c *Controller) ReadQueueLen() int  { return c.reads.len }
func (c *Controller) WriteQueueLen() int { return c.writes.len }

// InWriteMode reports the scheduling mode.
func (c *Controller) InWriteMode() bool { return c.writeMode }

// Idle reports whether all queues and banks are drained.
func (c *Controller) Idle() bool {
	return c.reads.len == 0 && c.writes.len == 0 && len(c.auxPending) == 0 &&
		len(c.wbPending) == 0 && len(c.inflight) == 0
}

// EnqueueRead accepts a processor demand read; false means the queue is
// full and the core must retry.
func (c *Controller) EnqueueRead(coreID int, line uint64, now uint64) bool {
	if c.reads.len >= c.cfg.RDQSize {
		return false
	}
	loc, err := c.decode(line)
	if err != nil {
		return false
	}
	r := c.newReadReq()
	r.Kind, r.Line, r.Loc, r.Core, r.EnqueueTick = ReadData, line, loc, coreID, now
	if c.tr != nil {
		r.TraceRef = c.tr.Begin(tracing.KindDataRead, c.trChannel, c.bankOf(loc), coreID, line, now)
	}
	c.reads.push(c.bankOf(loc), r)
	c.quiet = false
	c.run.DataReads.Inc()
	return true
}

// EnqueueWrite accepts a processor writeback; false means the write queue
// is full.
func (c *Controller) EnqueueWrite(line uint64, data bits.Line, now uint64) bool {
	if c.writes.len >= c.cfg.WRQSize {
		return false
	}
	loc, err := c.decode(line)
	if err != nil {
		return false
	}
	// Materialize the wordline group (resident prefill) before the scheme
	// inspects content or initializes metadata.
	c.env.Store.EnsureRow(c.env.Geom.GlobalRow(loc))
	req := c.newWriteReq()
	req.Line, req.Loc, req.Data, req.EnqueueCycle, req.Clrs = line, loc, data, now, -1
	if c.tr != nil {
		req.TraceRef = c.tr.Begin(tracing.KindDataWrite, c.trChannel, c.bankOf(loc), -1, line, now)
	}
	aux, wbs := c.scheme.Enqueue(req)
	c.writes.push(c.bankOf(loc), req)
	c.quiet = false
	c.run.DataWrites.Inc()
	c.routeAux(aux, req, now)
	c.routeWritebacks(wbs, now)
	return true
}

// routeAux queues auxiliary reads, respecting RDQ capacity. SMB reads
// feed target, the write whose enqueue issued them (schemes issue SMB
// reads only from Enqueue).
func (c *Controller) routeAux(aux []core.AuxRead, target *core.WriteRequest, now uint64) {
	for _, a := range aux {
		kind := ReadSMB
		if a.Kind == core.AuxMeta {
			kind = ReadMeta
		}
		r := c.newReadReq()
		r.Kind, r.Line, r.Loc, r.EnqueueTick = kind, a.Key, a.Loc, now
		if kind == ReadSMB {
			r.Target = target
		}
		if c.tr != nil {
			tk := tracing.KindSMBRead
			if kind == ReadMeta {
				tk = tracing.KindMetaRead
			}
			r.TraceRef = c.tr.Begin(tk, c.trChannel, c.bankOf(a.Loc), -1, a.Key, now)
		}
		c.auxPending = append(c.auxPending, r)
	}
}

// routeWritebacks turns dirty metadata evictions into write-queue
// entries.
func (c *Controller) routeWritebacks(wbs []core.MetaWriteback, now uint64) {
	for _, wb := range wbs {
		req := c.newWriteReq()
		req.Line = wb.Key
		req.Loc = wb.Loc
		req.IsMeta = true
		req.MetaKey = wb.Key
		req.EnqueueCycle = now
		req.Clrs = -1
		if c.tr != nil {
			req.TraceRef = c.tr.Begin(tracing.KindMetaWrite, c.trChannel, c.bankOf(wb.Loc), -1, wb.Key, now)
		}
		c.wbPending = append(c.wbPending, req)
	}
}

// Tick advances the controller one tick: completions, watermark
// management, queue drains, and issue. It reports activity — whether any
// operation completed or dispatched this cycle. Activity is what can
// unblock the rest of the system (cores stalled on full queues or MLP
// limits, queued writes waiting on metadata fills), so the event engine
// always processes the cycle after an active one; a tick that reports
// false leaves every externally visible invariant untouched and the
// controller provably dormant until its next scheduled event.
//
// A dormant tick costs O(1): after a tick that completed, moved and
// dispatched nothing, the queues, the mode, the scheme's readiness
// verdicts and the set of free banks all stay put until an enqueue or
// the next in-flight finish, so the ticks in between return right after
// the occupancy sampling.
func (c *Controller) Tick(now uint64) bool {
	if c.instrumented && now&occupancySampleMask == 0 {
		c.mRDQOcc.Observe(float64(c.reads.len))
		c.mWRQOcc.Observe(float64(c.writes.len))
	}
	if c.quiet && now < c.nextFinish {
		return false
	}
	completed := now >= c.nextFinish && c.completeFinished(now)
	c.updateMode(now)
	// A moved writeback can lift the queue over the high watermark after
	// updateMode looked, so the mode flips on the next tick: not quiet.
	moved := c.drainPending()
	issued := c.issue(now)
	c.quiet = !completed && !moved && !issued
	return completed || issued
}

// NextEventAt returns the next cycle strictly after now at which this
// controller's Tick can do something a no-op tick would not: the
// earliest in-flight completion, the head of the in-flight list
// (bank-free times coincide with completions, so dispatch
// opportunities appear there too). A non-idle
// controller with nothing in flight asks for the very next cycle — the
// conservative answer for queue states that only resolve through
// repeated issue attempts. Idle controllers sleep until an enqueue wakes
// the system.
func (c *Controller) NextEventAt(now uint64) uint64 {
	if len(c.inflight) == 0 {
		if c.Idle() {
			return engine.Horizon
		}
		return now + 1
	}
	if c.nextFinish <= now {
		return now + 1
	}
	return c.nextFinish
}

// startOp enters an operation into the in-flight list, after every op
// with an equal or earlier finish, and marks its bank busy.
func (c *Controller) startOp(op busyOp) {
	c.insertions++
	op.ins = c.insertions
	c.busy |= 1 << op.bank
	i := len(c.inflight)
	c.inflight = append(c.inflight, op)
	for ; i > 0 && c.inflight[i-1].finish > op.finish; i-- {
		c.inflight[i] = c.inflight[i-1]
	}
	c.inflight[i] = op
	c.nextFinish = c.inflight[0].finish
}

// completeFinished retires operations whose bank time elapsed, in the
// order they entered the in-flight list, reporting whether any did. A
// verify reissue re-enters the list behind the operations still in
// flight.
func (c *Controller) completeFinished(now uint64) bool {
	k := 0
	for k < len(c.inflight) && c.inflight[k].finish <= now {
		k++
	}
	if k == 0 {
		return false
	}
	due := append(c.due[:0], c.inflight[:k]...)
	c.inflight = c.inflight[:copy(c.inflight, c.inflight[k:])]
	// Ops finishing at one tick are already in entry order; only a tick
	// processed after several finishes needs the sort.
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && due[j].ins < due[j-1].ins; j-- {
			due[j], due[j-1] = due[j-1], due[j]
		}
	}
	for _, op := range due {
		c.busy &^= 1 << op.bank
		if op.read != nil {
			c.finishRead(op.read, now)
			c.freeReads = append(c.freeReads, op.read)
		} else if c.finishWrite(op, now) {
			c.freeWrites = append(c.freeWrites, op.write)
		}
	}
	c.due = due[:0]
	c.nextFinish = engine.Horizon
	if len(c.inflight) > 0 {
		c.nextFinish = c.inflight[0].finish
	}
	return true
}

// finishRead delivers a completed read.
func (c *Controller) finishRead(r *ReadReq, now uint64) {
	if c.tr != nil && r.TraceRef != 0 {
		c.tr.End(r.TraceRef, now)
	}
	c.meter.Read()
	switch r.Kind {
	case ReadData:
		c.run.ReadLatencyNs.Observe(float64(now-r.EnqueueTick) / TicksPerNs)
		if c.onReadDone != nil {
			c.onReadDone(r, now)
		}
	case ReadSMB:
		if r.Target != nil {
			c.scheme.SMBArrived(r.Target, c.env.Store.ReadLogical(r.Loc))
		}
	case ReadMeta:
		c.scheme.MetaArrived(r.Line)
	}
}

// finishWrite persists a completed write through the FNW bridge and lets
// the scheme update its metadata. Under fault injection the pulse is
// verified first: a failed RESET reissues with an escalated latency
// instead of persisting, so the array only ever holds verified content.
// It reports whether the request fully retired (false while a reissued
// pulse keeps it in flight), so the caller knows when to recycle it.
func (c *Controller) finishWrite(op busyOp, now uint64) bool {
	req := op.write
	if req.IsMeta {
		if c.tr != nil && req.TraceRef != 0 {
			c.tr.End(req.TraceRef, now)
		}
		// Metadata content was persisted to the backing image at
		// eviction; here the device pays the array write.
		c.meter.Write(op.latNs, core.MetaLineSize*2)
		c.retrySpill(now)
		return true
	}
	if c.tr != nil && op.retryRef != 0 {
		c.tr.End(op.retryRef, now)
	}
	if c.inj != nil && !c.verifyWrite(op, now) {
		return false
	}
	if c.tr != nil && req.TraceRef != 0 {
		c.tr.End(req.TraceRef, now)
	}
	old := c.env.Store.Read(req.Loc)
	enc := req.Payload
	var res bits.FNWResult
	if c.scheme.UseConstrainedFNW() {
		res = bits.ConstrainedFNW(&old, &enc)
	} else {
		res = bits.ClassicFNW(&old, &enc)
	}
	c.env.Store.WriteFNW(req.Loc, enc, res.Flips)
	c.run.BitChanges.Add(uint64(res.BitChanges))
	c.run.FNWFlips.Add(uint64(mathbits.OnesCount8(res.Flips)))
	c.run.FNWCanceled.Add(uint64(res.Canceled))
	c.run.FNWUnits.Add(bits.FNWUnits)
	c.run.WriteServiceNs.Observe(float64(now-req.DispatchCycle) / TicksPerNs)
	c.meter.Write(op.latNs, res.BitChanges)
	// Wear-limit-triggered proactive retirement: once a row's effective
	// write count reaches the decoder's limit, move it to a spare before
	// the fault model ever declares it permanently failed. Best-effort —
	// an empty pool is not an error here.
	if c.dec.ProactiveEnabled() {
		globalRow := c.env.Geom.GlobalRow(req.Loc)
		c.dec.MaybeRetire(c.bankOf(req.Loc), globalRow, c.env.Store.RowWrites(globalRow))
	}
	c.routeWritebacks(c.scheme.Complete(req, old, enc), now)
	c.retrySpill(now)
	return true
}

// verifyWrite runs the program-and-verify check for a completed data
// pulse. It reports whether the write may persist: true on a clean
// verify and on the remap path (the final attempt lands on the fresh
// spare row), false when the pulse failed and an escalated reissue was
// scheduled. The required latency is computed over the row's pre-write
// content — exactly what the pulse had to overcome — and the injector's
// response to the pulse's margin over that requirement is U-shaped
// (package fault), so a scheme whose metadata is conservatively stale
// (LADDER-Est's partial-counter bounds) programs surplus margin and
// fails verify more often than LADDER-Basic's exact counters.
func (c *Controller) verifyWrite(op busyOp, now uint64) bool {
	req := op.write
	globalRow := c.env.Geom.GlobalRow(req.Loc)
	needNs := c.env.Tables.WL.Lookup(req.Loc.WL, req.Loc.BLHigh, c.env.Store.MaxRowCounter(globalRow))
	rowWrites := c.env.Store.RowWrites(globalRow)
	// Wear on a remapped row's fresh spare counts from the remap point:
	// the decoder owns the baseline, the injector only sees effective
	// writes.
	verdict := c.inj.CheckWrite(op.latNs, needNs, rowWrites-c.dec.SpareBaseWrites(globalRow))
	if verdict == fault.OK {
		return true
	}
	// The failed pulse still ran: charge its energy, zero cells switched.
	c.meter.Write(op.latNs, 0)
	if verdict == fault.Transient && req.Retries < c.inj.RetryMax() {
		c.reissueWrite(op, now)
		return false
	}
	// Permanent fault, or the transient retry budget ran out: retire the
	// row to the bank's spare pool. The remapped write persists below —
	// the spare starts fresh, so no re-verification is modeled.
	if verdict == fault.Transient {
		c.inj.NoteExhausted()
	}
	if err := c.dec.RemapSpare(c.bankOf(req.Loc), globalRow, rowWrites); err != nil && c.faultErr == nil {
		c.faultErr = err
	}
	return true
}

// reissueWrite schedules the escalated program-and-verify reissue: the
// pulse latency climbs one timing-table content bucket per attempt
// (unknown-content writes jump straight to the worst bucket), the bank
// stays busy for the full escalated duration, and a RetryAware scheme
// gets to reconcile the stale metadata that caused the failure.
func (c *Controller) reissueWrite(op busyOp, now uint64) {
	req := op.write
	req.Retries++
	c.inj.NoteRetry()
	if ra, ok := c.scheme.(core.RetryAware); ok {
		ra.WriteRetry(req, req.Retries)
	}
	t := c.env.Tables.WL
	lat := t.EscalateContent(req.Loc.WL, req.Loc.BLHigh, req.Clrs, req.Retries)
	if lat < op.latNs {
		lat = op.latNs
	}
	bank := c.bankOf(req.Loc)
	dur := uint64(c.cfg.TRCD+c.cfg.TBurst) + uint64(math.Ceil(lat*TicksPerNs))
	var ref uint64
	if c.tr != nil && req.TraceRef != 0 {
		ref = c.tr.Begin(tracing.KindWriteRetry, c.trChannel, bank, -1, req.Line, now)
		clrs := -1
		if req.Clrs >= 0 {
			clrs = t.BucketOf(req.Clrs)
		}
		c.tr.Dispatch(ref, now, lat,
			t.BucketOf(req.Loc.WL), t.BucketOf(req.Loc.BLHigh), clrs, c.writeMode)
	}
	c.mRetryHist.Observe(lat)
	c.startOp(busyOp{finish: now + dur, bank: bank, write: req, latNs: lat, retryRef: ref})
}

// retrySpill lets the scheme re-attempt deferred metadata acquisitions.
func (c *Controller) retrySpill(now uint64) {
	aux, wbs := c.scheme.RetrySpill()
	c.routeAux(aux, nil, now)
	c.routeWritebacks(wbs, now)
}

// updateMode manages the write-drain watermarks; the spill buffer is
// retried at every mode switch (paper Section 3.3).
func (c *Controller) updateMode(now uint64) {
	if !c.writeMode && c.writes.len >= c.drainAt {
		c.writeMode = true
		c.mDrains.Inc()
		c.retrySpill(now)
	} else if c.writeMode && c.writes.len <= c.cfg.WriteLowEntries {
		c.writeMode = false
		c.retrySpill(now)
	}
}

// drainPending moves deferred aux reads and metadata writebacks into the
// queues as space opens, reporting whether it moved any.
func (c *Controller) drainPending() bool {
	r := 0
	for ; r < len(c.auxPending) && c.reads.len < c.cfg.RDQSize; r++ {
		c.reads.push(c.bankOf(c.auxPending[r].Loc), c.auxPending[r])
	}
	w := 0
	for ; w < len(c.wbPending) && c.writes.len < c.cfg.WRQSize; w++ {
		c.writes.push(c.bankOf(c.wbPending[w].Loc), c.wbPending[w])
	}
	if r == 0 && w == 0 {
		return false
	}
	c.auxPending = c.auxPending[:copy(c.auxPending, c.auxPending[r:])]
	c.wbPending = c.wbPending[:copy(c.wbPending, c.wbPending[w:])]
	return true
}

// issue starts operations on free banks, reporting whether any
// dispatched. Writes take priority during drain mode; reads otherwise.
// Auxiliary reads are always eligible (they unblock queued writes), and
// the controller is work-conserving: leftover free banks serve the other
// queue.
func (c *Controller) issue(now uint64) bool {
	issued := false
	if c.writeMode {
		issued = c.issueWrites(now)
		// Remaining free banks serve reads, auxiliary ones first (they
		// unblock queued writes). Data reads must stay eligible: a read
		// queue full of demand reads would otherwise wedge pending
		// metadata fills and deadlock the drain.
		issued = c.issueReads(now, true) || issued
		issued = c.issueReads(now, false) || issued
	} else {
		issued = c.issueReads(now, false)
		// Opportunistic drain when no reads are waiting.
		if c.reads.len == 0 {
			issued = c.issueWrites(now) || issued
		}
	}
	return issued
}

// insertPick inserts p into picks, kept ascending by arrival number.
func insertPick(picks []pick, p pick) []pick {
	picks = append(picks, p)
	i := len(picks) - 1
	for ; i > 0 && picks[i-1].seq > p.seq; i-- {
		picks[i] = picks[i-1]
	}
	picks[i] = p
	return picks
}

// issueReads dispatches, on each free bank, its first queued read (with
// auxOnly, its first SMB or metadata read), in arrival order — the
// reads a walk of one arrival-ordered queue would dispatch, in its
// order.
func (c *Controller) issueReads(now uint64, auxOnly bool) bool {
	q := &c.reads
	picks := c.picks[:0]
	for m := q.banks &^ c.busy; m != 0; m &= m - 1 {
		b := mathbits.TrailingZeros64(m)
		prev, i := int32(none), q.head[b]
		for auxOnly && i != none && q.entries[i].v.Kind == ReadData {
			prev, i = i, q.entries[i].next
		}
		if i != none {
			picks = insertPick(picks, pick{bank: b, prev: prev, idx: i, seq: q.entries[i].seq})
		}
	}
	for _, p := range picks {
		r := q.remove(p.bank, p.prev, p.idx)
		dur := uint64(c.cfg.TRCD+c.cfg.TCL+c.cfg.TBurst) + c.dec.PenaltyTicks(r.Loc)
		if c.tr != nil && r.TraceRef != 0 {
			c.tr.Dispatch(r.TraceRef, now, float64(dur)/TicksPerNs, -1, -1, -1, c.writeMode)
		}
		c.startOp(busyOp{finish: now + dur, bank: p.bank, read: r})
	}
	return len(picks) > 0
}

// issueWrites dispatches, on each free bank, its first ready write,
// reporting whether any did. It merges the free banks' queues by
// arrival number, so it asks the scheme whether a write is ready for
// exactly the entries, and in exactly the order, that a walk of one
// arrival-ordered queue skipping busy banks would: a bank leaves the
// merge at its first ready write (it is busy from then on) or when its
// queue runs out.
func (c *Controller) issueWrites(now uint64) bool {
	q := &c.writes
	picks := c.picks[:0]
	for m := q.banks &^ c.busy; m != 0; m &= m - 1 {
		b := mathbits.TrailingZeros64(m)
		picks = insertPick(picks, pick{bank: b, prev: none, idx: q.head[b], seq: q.entries[q.head[b]].seq})
	}
	issued := false
	for len(picks) > 0 {
		p := picks[0]
		picks = picks[:copy(picks, picks[1:])]
		req := q.entries[p.idx].v
		if !req.IsMeta && !c.scheme.Ready(req) {
			if p.prev, p.idx = p.idx, q.entries[p.idx].next; p.idx != none {
				p.seq = q.entries[p.idx].seq
				picks = insertPick(picks, p)
			}
			continue
		}
		q.remove(p.bank, p.prev, p.idx)
		c.dispatchWrite(req, p.bank, now)
		issued = true
	}
	return issued
}

// dispatchWrite programs one write on its bank: the scheme's latency
// (the location-only worst case for metadata and maintenance writes),
// the RESET instruments, and the op entering the in-flight list.
func (c *Controller) dispatchWrite(req *core.WriteRequest, bank int, now uint64) {
	var latNs float64
	if req.IsMeta {
		// Metadata blocks have no tracked counters; their writes use
		// the location-dependent worst-content latency (Section 3.3).
		latNs = c.env.Tables.WL.LocationOnly(req.Loc.WL, req.Loc.BLHigh)
		c.mMetaIssued.Inc()
	} else {
		latNs = c.scheme.Latency(req)
		// Attribute the RESET to its latency bucket and timing-table
		// cell. Metadata writes are excluded so the histogram matches
		// the paper's data-write latency distribution (Figure 7).
		c.mResetHist.Observe(latNs)
		if c.instrumented {
			t := c.env.Tables.WL
			c.mResetCells.Inc(t.BucketOf(req.Loc.WL), t.BucketOf(req.Loc.BLHigh))
		}
	}
	dur := uint64(c.cfg.TRCD+c.cfg.TBurst) + uint64(math.Ceil(latNs*TicksPerNs)) + c.dec.PenaltyTicks(req.Loc)
	req.DispatchCycle = now
	if c.tr != nil && req.TraceRef != 0 {
		t := c.env.Tables.WL
		clrs := -1
		if req.Clrs >= 0 {
			clrs = t.BucketOf(req.Clrs)
		}
		c.tr.Dispatch(req.TraceRef, now, latNs,
			t.BucketOf(req.Loc.WL), t.BucketOf(req.Loc.BLHigh), clrs, c.writeMode)
	}
	c.startOp(busyOp{finish: now + dur, bank: bank, write: req, latNs: latNs})
}

// ReadLineLogical performs an immediate functional read (no timing):
// stored bits through the FNW bridge and the scheme's datapath decode.
// Used by verification paths and examples. It decodes the line without
// the address decoder: the store keys on the global row and slot, which
// the decoder's wordline rotation leaves unchanged (docs/REMAP.md).
func (c *Controller) ReadLineLogical(line uint64) (bits.Line, error) {
	loc, err := c.env.Geom.Decode(line)
	if err != nil {
		return bits.Line{}, err
	}
	return c.scheme.DecodeRead(loc, c.env.Store.ReadLogical(loc)), nil
}
