package sim

import (
	"context"
	"fmt"
	mathbits "math/bits"
	"time"

	"ladder/internal/bits"
	"ladder/internal/core"
	"ladder/internal/cpu"
	"ladder/internal/energy"
	"ladder/internal/engine"
	"ladder/internal/fault"
	"ladder/internal/memctrl"
	"ladder/internal/metrics"
	"ladder/internal/remap"
	"ladder/internal/reram"
	"ladder/internal/timeline"
	"ladder/internal/timing"
	"ladder/internal/trace"
	"ladder/internal/tracing"
)

// drainCap bounds a controller drain: a system that cannot quiesce
// within 50M simulated cycles (12.5 ms at 4 GHz, orders of magnitude
// beyond any legitimate backlog) is wedged, and Run reports it as an
// error instead of returning silently-truncated results.
const drainCap = 50_000_000

// System is one assembled simulation: the construction products of the
// build phase plus the event engine that executes it. Run drives it
// through its phases — build, warm, execute, drain, collect — each an
// ordinary method so variants (warmup-only runs, checkpoint/resume
// experiments) can compose them differently.
type System struct {
	cfg     Config
	tables  *timing.TableSet
	store   *reram.Store
	reg     *metrics.Registry
	env     *core.Env
	meter   *energy.Meter
	cores   []*cpu.Core
	finish  []uint64
	ctrls   []*memctrl.Controller
	schemes []core.Scheme
	// dec is the shared programmable address decoder (package remap):
	// the one logical→physical indirection point — start-gap rotation,
	// spare-row substitution, proactive retirement. Nil when neither
	// wear leveling nor fault handling needs indirection.
	dec       *remap.Decoder
	lineRemap func(uint64) uint64
	expected  map[uint64]bits.Line
	started   time.Time
	tr        *tracing.Collector
	// inj is the shared write-fault injector, nil unless FaultRate > 0.
	// One instance serves every channel: the run is single-goroutine and
	// actor order is deterministic, so the PRNG stream replays exactly.
	inj *fault.Injector

	eng      *engine.Engine
	clock    *engine.Clock
	coreActs []*coreActor
	// sampler is the timeline epoch sampler, nil unless TimelineInterval
	// > 0. Driven by the engine's observer hook; strictly read-only
	// against simulation state.
	sampler *timeline.Sampler

	running      int
	crashPending bool
	// preCrash is the registry snapshot taken at crash recovery.
	preCrash *metrics.Snapshot
	// err carries a failure raised inside an actor (actors cannot return
	// errors through the engine) out to the execute phase.
	err error
	// ctx is the run's context, polled by interrupted; polls counts the
	// calls since the last poll.
	ctx   context.Context
	polls int
	// inputs is the registry entry whose rows and tapes the run reads,
	// nil in a run with neither and while the run holds none.
	inputs *machineInputs
	// lines is cfg.Geom.Lines(), the bound issue checks every access
	// against.
	lines uint64
}

// build is the build phase: it constructs every component — store,
// metrics registry, energy meter, cores, per-channel controllers
// with their private scheme instances, optional wear leveling — and the
// event engine that will drive them, without simulating a single cycle.
// The run takes its registry entry here, before its cores are built on
// the entry's tapes. A build that fails or panics leaves what it built
// for release, like a finished run.
func (s *System) build(cfg Config) error {
	if err := cfg.applyDefaults(); err != nil {
		return err
	}
	s.cfg, s.started, s.lines = cfg, time.Now(), cfg.Geom.Lines()

	streams, err := coreStreams(&cfg)
	if err != nil {
		return err
	}
	if len(streams) > 0 || cfg.ResidentLevel > 0 {
		s.inputs = sharedInputs.acquire(machineKey{cfg.Workload, cfg.residentKey()})
	}
	s.tables = cfg.Tables
	if cfg.ShrinkRange > 1 {
		s.tables = shrunk(s.tables, cfg.ShrinkRange)
	}
	s.store, err = reram.NewStore(cfg.Geom)
	if err != nil {
		return err
	}
	// Per-bitline LRS profiling feeds only the BLP baseline's readout;
	// every other scheme skips that per-changed-bit bookkeeping.
	s.store.SetColumnTracking(cfg.Scheme == SchemeBLP)
	// Each run owns a private registry; RunGrid merges them afterward, so
	// the observe paths stay lock-free (a run is single-goroutine).
	s.reg = metrics.NewRegistry()
	s.store.Instrument(s.reg)
	s.env = &core.Env{Geom: cfg.Geom, Store: s.store, Tables: s.tables, Metrics: s.reg}
	s.meter, err = energy.NewMeter(energy.DefaultParams())
	if err != nil {
		return err
	}
	if cfg.TraceSample > 0 {
		s.tr = tracing.NewCollector(tracing.Config{
			SampleEvery: cfg.TraceSample,
			Capacity:    cfg.TraceCapacity,
			SlowestK:    cfg.TraceSlowest,
		})
	}
	if cfg.FaultRate > 0 {
		s.inj, err = fault.NewInjector(cfg.faultConfig())
		if err != nil {
			return err
		}
		s.inj.Instrument(s.reg)
	}

	if err := s.buildCores(streams); err != nil {
		return err
	}
	// The decoder is built before the controllers so Instrument sees it
	// (like SetFaults, the hook must land before instruments are created).
	if err := s.buildDecoder(); err != nil {
		return err
	}
	if err := s.buildControllers(); err != nil {
		return err
	}
	if cfg.Verify {
		s.expected = make(map[uint64]bits.Line)
	}
	s.buildEngine()
	return nil
}

// streamKey is the exact argument set of one core's trace.Generator:
// two cores with equal keys draw identical access streams.
type streamKey struct {
	prof     trace.Profile
	seed     int64
	basePage uint64
}

// newTape returns an empty tape over k's stream.
func (k streamKey) newTape() (*trace.Tape, error) {
	return trace.NewTape(k.prof, k.seed, k.basePage)
}

// coreStreams derives the generator arguments of each core cfg builds:
// one per profile of the workload, each in its own region of the memory
// with its footprint clamped to the region so every generated address
// decodes (small test geometries compress footprints). A TraceFile run
// has no generated streams. It reads only Workload, Seed, Geom and
// TraceFile, so it gives the same keys before and after applyDefaults.
func coreStreams(cfg *Config) ([]streamKey, error) {
	if cfg.TraceFile != "" {
		return nil, nil
	}
	profiles, err := trace.MixProfiles(cfg.Workload)
	if err != nil {
		return nil, err
	}
	regionPages := cfg.Geometry().Lines() / reram.BlocksPerRow / uint64(len(profiles)+1)
	keys := make([]streamKey, len(profiles))
	for i, p := range profiles {
		if uint64(p.WorkingSetPages) > regionPages {
			p.WorkingSetPages = int(regionPages)
		}
		keys[i] = streamKey{prof: p, seed: cfg.Seed + int64(i)*7919 + 1, basePage: uint64(i) * regionPages}
	}
	return keys, nil
}

// buildCores creates one core per stream (or a single core replaying a
// recorded trace). Every core reads its stream through a cursor on a
// tape of the run's registry entry, so a stream is drawn once however
// many runs replay it.
func (s *System) buildCores(streams []streamKey) error {
	cfg := s.cfg
	if cfg.TraceFile != "" {
		rep, err := trace.LoadFile(cfg.TraceFile)
		if err != nil {
			return err
		}
		if rep.MaxLine() >= cfg.Geom.Lines() {
			return fmt.Errorf("sim: trace address %d exceeds the configured memory (%d lines)", rep.MaxLine(), cfg.Geom.Lines())
		}
		c, err := cpu.NewCore(0, rep, cpu.DefaultMLP)
		if err != nil {
			return err
		}
		s.cores = []*cpu.Core{c}
		s.finish = make([]uint64, 1)
		return nil
	}
	s.cores = make([]*cpu.Core, len(streams))
	s.finish = make([]uint64, len(streams))
	for i, k := range streams {
		tape, err := s.inputs.tape(k)
		if err != nil {
			return err
		}
		s.cores[i], err = cpu.NewCore(i, tape.Cursor(), cpu.DefaultMLP)
		if err != nil {
			return err
		}
	}
	return nil
}

// buildControllers creates one controller per channel, each resolving its
// private scheme instance through the core registry.
func (s *System) buildControllers() error {
	cfg := s.cfg
	onReadDone := func(r *memctrl.ReadReq, _ uint64) {
		if r.Core >= 0 && r.Core < len(s.cores) {
			s.cores[r.Core].ReadDone()
		}
	}
	s.ctrls = make([]*memctrl.Controller, cfg.Geom.Channels)
	s.schemes = make([]core.Scheme, cfg.Geom.Channels)
	for ch := range s.ctrls {
		scheme, err := core.NewScheme(cfg.Scheme, s.env, cfg.metaCache())
		if err != nil {
			return err
		}
		if cfg.Scheme == SchemeHybrid && cfg.HybridLowRows != 0 {
			scheme.(*core.Hybrid).SetLowPrecisionRows(max(cfg.HybridLowRows, 0))
		}
		s.schemes[ch] = scheme
		s.ctrls[ch], err = memctrl.NewController(memctrl.DefaultConfig(), s.env, scheme, s.meter, onReadDone)
		if err != nil {
			return err
		}
		s.ctrls[ch].SetFaults(s.inj)
		s.ctrls[ch].SetDecoder(s.dec)
		s.ctrls[ch].Instrument(ch)
		if s.tr != nil {
			s.ctrls[ch].Trace(s.tr, ch)
		}
	}
	return nil
}

// buildDecoder configures the programmable address decoder: vertical
// wear leveling (segment mode), the spare-row pool backing fault
// remapping, and proactive wear-limit retirement all live behind it.
// Line-mode VWL stays a plain address bijection applied before decode.
func (s *System) buildDecoder() error {
	cfg := s.cfg
	if cfg.WearLeveling && cfg.VWLMode == "line" {
		if err := s.buildLineVWL(); err != nil {
			return err
		}
	}
	rc := cfg.remapConfig()
	if rc.GapSegmentRows == 0 && cfg.FaultRate == 0 && cfg.ProactiveWearLimit == 0 {
		return nil
	}
	dec, err := remap.NewDecoder(rc)
	if err != nil {
		return err
	}
	dec.Instrument(s.reg)
	s.dec = dec
	return nil
}

// buildLineVWL configures line-granularity wear leveling (Security-
// Refresh style): the steady-state address scatter distributes a page's
// blocks over different wordline groups — the case Section 6.4 warns
// deteriorates LRS-metadata locality. Modeled as a static XOR bijection
// over line addresses (epoch migrations not charged; the performance
// claim concerns the scatter). It stays outside the decoder because it
// rewrites line addresses before decode, not decoded row locations.
func (s *System) buildLineVWL() error {
	lines := s.cfg.Geom.Lines()
	if lines&(lines-1) != 0 {
		return fmt.Errorf("sim: line-mode VWL requires a power-of-two line count")
	}
	// Rotate the slot bits to the top of the address: the 64 blocks of
	// one page land in 64 different wordline groups (a bijection, so
	// reads still find their data).
	width := uint(mathbits.TrailingZeros64(lines))
	s.lineRemap = func(line uint64) uint64 {
		return (line>>6 | (line&63)<<(width-6)) & (lines - 1)
	}
	return nil
}

// buildEngine assembles the event engine. Actor registration order is
// the per-cycle evaluation order and is load-bearing for cycle-identical
// results: the crash monitor first (a power failure preempts the cycle),
// then cores in index order, then controllers in channel order — cores
// before controllers so an enqueue is visible to its channel within the
// same cycle, exactly as in the classic tick loop.
func (s *System) buildEngine() {
	s.eng = engine.New()
	s.clock = s.eng.Clock()
	s.running = len(s.cores)
	if s.cfg.CrashAtInstr > 0 {
		s.crashPending = true
		s.eng.Add(&crashActor{sys: s})
	}
	s.coreActs = make([]*coreActor, len(s.cores))
	for i := range s.cores {
		s.coreActs[i] = &coreActor{sys: s, i: i}
		s.eng.Add(s.coreActs[i])
	}
	for _, c := range s.ctrls {
		s.eng.Add(&ctrlActor{sys: s, c: c})
	}
	if p := s.progressHook(); p != nil {
		every := s.cfg.ProgressEvery
		if every == 0 {
			every = 250_000
		}
		s.eng.AddHook(every, p)
	}
	if s.cfg.TimelineInterval > 0 {
		s.sampler = timeline.NewSampler(timeline.Config{
			Interval: s.cfg.TimelineInterval,
			Registry: s.reg,
			Probe:    s.timelineScalars,
			OnEpoch:  s.cfg.TimelineOnEpoch,
		})
		s.eng.AddHook(s.cfg.TimelineInterval, s.sampler.Sample)
	}
}

// retired returns the instructions retired across cores as of the top
// of cycle now. Cores catch up lazily; to observe the count the classic
// loop would have seen, their skipped cycles are applied first. This is
// idempotent with the cores' own catch-up, so observers (the crash
// monitor, the timeline probe, the progress hook) stay cycle-neutral.
// Catch-up only moves forward, so calls must come in cycle order, as
// the engine fires hook boundaries.
func (s *System) retired(now uint64) uint64 {
	var total uint64
	for i, c := range s.cores {
		s.coreActs[i].catchUp(now)
		total += c.Retired()
	}
	return total
}

// timelineScalars is the sampler's probe: the run's live cumulative
// quantities that are not registry counters, at epoch boundary now.
func (s *System) timelineScalars(now uint64) timeline.Scalars {
	sc := timeline.Scalars{
		Instructions: s.retired(now),
		StoreWrites:  s.store.TotalWrites(),
		ReadNJ:       s.meter.ReadNJ,
		WriteNJ:      s.meter.WriteNJ,
		ReadQueue:    make([]int, len(s.ctrls)),
		WriteQueue:   make([]int, len(s.ctrls)),
	}
	for ch, c := range s.ctrls {
		sc.ReadQueue[ch] = c.ReadQueueLen()
		sc.WriteQueue[ch] = c.WriteQueueLen()
	}
	return sc
}

// progressHook adapts Config.Progress to the engine's cycle hook, or
// returns nil when no callback is set.
func (s *System) progressHook() func(uint64) {
	emit := s.cfg.Progress
	if emit == nil {
		return nil
	}
	return func(now uint64) {
		info := ProgressInfo{Cycle: now, Cores: make([]CoreProgress, len(s.cores)), Channels: make([]ChannelProgress, len(s.ctrls))}
		retired := s.retired(now)
		for i, c := range s.cores {
			info.Cores[i] = CoreProgress{Retired: c.Retired(), Outstanding: c.Outstanding()}
		}
		for ch, c := range s.ctrls {
			info.Channels[ch] = ChannelProgress{ReadQueue: c.ReadQueueLen(), WriteQueue: c.WriteQueueLen(), WriteMode: c.InWriteMode()}
		}
		info.Wall = time.Since(s.started)
		if sec := info.Wall.Seconds(); sec > 0 {
			info.InstrRate = float64(retired) / sec
		}
		if s.cfg.ProgressDetail {
			snap := s.reg.Snapshot()
			info.Metrics = &snap
			info.Spans = s.tr.Recent(progressSpanCount)
		}
		emit(info)
	}
}

// progressSpanCount bounds the recent-span slice a detailed progress
// snapshot carries (the introspection server's /spans document).
const progressSpanCount = 64

// warm is the warm phase: it configures resident data, which the store
// prefills into each wordline group on first touch, so touched groups
// carry realistic ones-density before the first write arrives. Every run
// views the shared row images of the registry entry build took,
// built once per (level, seed) while recent runs retain them.
func (s *System) warm() error {
	if s.cfg.ResidentLevel > 0 {
		s.store.UseResident(s.inputs.rows)
	}
	return nil
}

// residentKey is the key of the run's resident rows; level 0 stands
// for every level that turns resident data off.
func (c *Config) residentKey() residentKey {
	return residentKey{max(c.ResidentLevel, 0), uint64(c.Seed) + 0x5eed}
}

// release hands the run's storage back for later runs to reuse: each
// controller's queues and requests, each scheme's metadata cache and the
// store's rows, then the run's hold on its registry entry (whose images
// and tapes are recycled once the registry evicts the entry). RunCtx
// defers it, so a run that fails, is canceled or panics releases too.
// Only the Result outlives it: its registry, trace and timeline.
func (s *System) release() {
	for _, c := range s.ctrls {
		if c != nil {
			c.Recycle()
		}
	}
	for _, sch := range s.schemes {
		if c, ok := sch.(interface{ Cache() *core.MetaCache }); ok {
			c.Cache().Recycle()
		}
	}
	if s.store != nil {
		s.store.Recycle()
	}
	if s.inputs != nil {
		sharedInputs.release(s.inputs)
		s.inputs = nil
	}
}

// issue hands one access from a core to its channel's controller,
// reporting whether it was accepted. It is the cores' IssueFunc.
func (s *System) issue(coreID int, a trace.Access) bool {
	now := s.clock.Now()
	if s.lineRemap != nil {
		a.Line = s.lineRemap(a.Line)
	}
	if a.Line >= s.lines {
		// Footprints are clamped to the memory, so this cannot happen;
		// dropping silently would leak the core's MLP slots.
		panic(fmt.Sprintf("sim: trace address %d outside memory (%d lines)", a.Line, s.lines))
	}
	c := s.ctrls[s.cfg.Geom.Channel(a.Line)]
	if a.Write {
		if !c.EnqueueWrite(a.Line, a.Data, now) {
			return false
		}
		if s.dec.RecordWrite() {
			// The gap move's maintenance write lands on the written
			// line's logical location; the line is in range.
			loc, _ := s.cfg.Geom.Decode(a.Line)
			c.EnqueueMaintenance(loc, now)
		}
		if s.expected != nil {
			s.expected[a.Line] = a.Data
		}
		return true
	}
	return c.EnqueueRead(coreID, a.Line, now)
}

// interruptCheckEvery is how many engine steps (execute) or drain
// iterations pass between polls of the run's context. Steps are
// microsecond-scale, so a canceled run stops within milliseconds while
// the per-step overhead stays one counter increment.
const interruptCheckEvery = 1024

// interrupted polls the run's context once every interruptCheckEvery
// calls and returns its cancellation cause once it is done.
func (s *System) interrupted() error {
	if s.polls++; s.polls < interruptCheckEvery {
		return nil
	}
	s.polls = 0
	if s.ctx.Err() != nil {
		return context.Cause(s.ctx)
	}
	return nil
}

// execute is the execute phase: the engine steps from event to event
// until every core exhausts its instruction budget. Cycles in which no
// component can act are skipped wholesale — the wall-clock win of the
// event-driven engine — while processed cycles replay the classic loop's
// exact evaluation order.
func (s *System) execute() error {
	for s.running > 0 {
		if !s.eng.Step() {
			return fmt.Errorf("sim: simulation deadlock: %d cores blocked with no pending events", s.running)
		}
		if s.err != nil {
			return s.err
		}
		if err := s.interrupted(); err != nil {
			return fmt.Errorf("sim: run interrupted: %w", err)
		}
	}
	return nil
}

// drainRemaining is the drain phase: after the last core retires its
// final instruction, outstanding queue entries and in-flight pulses are
// allowed to finish.
func (s *System) drainRemaining() error {
	// The main loop ends inside the cycle the last core finished; draining
	// starts on the next one, as the classic loop's now++ did.
	s.clock.AdvanceTo(s.clock.Now() + 1)
	return s.drain()
}

// drain runs controller-only cycles starting at the current clock until
// every channel is idle, jumping over provably dead cycles. Cores are
// frozen throughout (a drain models the cores having stopped — end of
// run, or a power failure cutting them off). On return the clock rests
// one past the first idle cycle, matching the classic loop. A system
// still busy after drainCap simulated cycles is wedged, and that is an
// error — truncated results must not masquerade as converged ones.
func (s *System) drain() error {
	start := s.clock.Now()
	now := start
	for {
		if now-start >= drainCap {
			return fmt.Errorf("sim: controllers failed to drain within %d cycles (read/write queues wedged)", drainCap)
		}
		if err := s.interrupted(); err != nil {
			return fmt.Errorf("sim: drain interrupted: %w", err)
		}
		idle := true
		active := false
		for _, c := range s.ctrls {
			if c.Tick(now) {
				active = true
			}
			if err := c.Err(); err != nil {
				return err
			}
			if !c.Idle() {
				idle = false
			}
		}
		prev := now
		now++
		if idle {
			s.clock.AdvanceTo(now)
			return nil
		}
		if !active {
			// Nothing completed or dispatched: the next state change is the
			// earliest in-flight completion; everything before it is dead.
			next := engine.Horizon
			for _, c := range s.ctrls {
				if n := c.NextEventAt(prev); n < next {
					next = n
				}
			}
			if next > now && next != engine.Horizon {
				now = next
			}
		}
		s.clock.AdvanceTo(now)
	}
}

// collect is the collect phase: read-back verification and assembly of
// the run's Result from the components' accounting.
func (s *System) collect() (*Result, error) {
	if s.expected != nil {
		for line, want := range s.expected {
			got, err := s.ctrls[s.cfg.Geom.Channel(line)].ReadLineLogical(line)
			if err != nil {
				return nil, fmt.Errorf("sim: verify read %d: %w", line, err)
			}
			if got != want {
				return nil, fmt.Errorf("sim: verify failed at line %d: stored data does not decode to the written content", line)
			}
		}
	}
	res := &Result{
		Workload:         s.cfg.Workload,
		Scheme:           s.cfg.Scheme,
		PerCoreIPC:       make([]float64, len(s.cores)),
		Ticks:            s.clock.Now(),
		ReadNJ:           s.meter.ReadNJ,
		WriteNJ:          s.meter.WriteNJ,
		TotalStoreWrites: s.store.TotalWrites(),
		MaxRowWrites:     s.store.MaxRowWrites(),
		TouchedRows:      s.store.TouchedRows(),
	}
	for i := range s.cores {
		res.PerCoreIPC[i] = float64(s.cfg.InstrPerCore) / float64(s.finish[i])
		res.InstructionsRetired += s.cores[i].Retired()
	}
	res.WallClock = time.Since(s.started)
	res.Metrics = s.reg
	res.Trace = s.tr
	// Close the trailing partial epoch (drain-phase activity included)
	// BEFORE exportRunMetrics: the export overwrites registry counters
	// with end-of-run absolutes, which must never appear as epoch deltas.
	s.sampler.Finalize(s.clock.Now())
	res.Timeline = s.sampler.Timeline()
	final := s.reg.Snapshot()
	res.Stats = core.StatsFrom(final)
	if s.preCrash != nil {
		pre, post := core.StatsFrom(*s.preCrash), core.StatsFrom(final.Sub(*s.preCrash))
		res.PreCrashStats, res.PostCrashStats = &pre, &post
	}
	if s.inj != nil {
		st := fault.StatsFrom(final)
		res.Faults = &st
	}
	if s.dec != nil {
		st := remap.StatsFrom(final)
		res.Remap = &st
	}
	exportRunMetrics(s.reg, res, s.schemes)
	return res, nil
}

// coreActor drives one core through the engine. It lazily applies the
// cycles it was not advanced at (Skip: bulk gap retirement or stall
// accounting — both provably identical to ticking each cycle, because a
// core inside a gap retires whatever the memory system does, and a
// blocked core is advanced after every cycle in which a controller
// changed state) and then ticks the core at the processed cycle. It is
// engine.DueOnly: the engine advances it only at the cycles its
// NextEventAt names and, while it is blocked, after activity.
type coreActor struct {
	sys *System
	i   int
	// next is the next cycle this core should tick; the span between next
	// and the engine's current cycle is applied in bulk via Skip.
	next uint64
	// stalling/stallRef track the open core-stall span (tracing runs
	// only): stalling marks an episode in progress, stallRef its sampled
	// span reference (0 when the episode was not sampled).
	stalling bool
	stallRef uint64
}

// catchUp applies every skipped cycle in [next, now).
func (a *coreActor) catchUp(now uint64) {
	if a.sys.finish[a.i] != 0 {
		a.next = now
		return
	}
	if now > a.next {
		a.sys.cores[a.i].Skip(now - a.next)
		a.next = now
	}
}

// Advance ticks the core at a processed cycle. It reports no activity:
// a core's externally visible effects (enqueues) land in controllers
// that evaluate later in the same cycle and report their own.
func (a *coreActor) Advance(now uint64) bool {
	s := a.sys
	if s.finish[a.i] != 0 {
		return false
	}
	a.catchUp(now)
	c := s.cores[a.i]
	c.Tick(s.issue)
	if s.tr != nil {
		a.traceStall(c.Stalled(), now)
	}
	if c.Retired() >= s.cfg.InstrPerCore {
		s.finish[a.i] = now + 1
		s.running--
	}
	a.next = now + 1
	return false
}

// traceStall opens a core-stall span when the core transitions into a
// stall and closes it when the core retires again, attributing blocked
// cycles in the trace timeline. Episode boundaries are observed at
// processed cycles — exact, because a stalled core's state only changes
// at cycles the engine processes.
func (a *coreActor) traceStall(stalled bool, now uint64) {
	if stalled == a.stalling {
		return
	}
	if stalled {
		a.stallRef = a.sys.tr.Begin(tracing.KindCoreStall, -1, -1, a.i, 0, now)
	} else if a.stallRef != 0 {
		a.sys.tr.End(a.stallRef, now)
		a.stallRef = 0
	}
	a.stalling = stalled
}

// DueOnly marks the core actor engine.DueOnly.
func (*coreActor) DueOnly() {}

func (a *coreActor) NextEventAt(now uint64) uint64 {
	if a.sys.finish[a.i] != 0 {
		return engine.Horizon
	}
	return a.sys.cores[a.i].NextEventAt(now, a.sys.cfg.InstrPerCore)
}

// ctrlActor adapts a memory controller to the engine, surfacing
// unrecoverable controller faults (spare-row pool exhaustion) through
// the system's error slot.
type ctrlActor struct {
	sys *System
	c   *memctrl.Controller
}

func (a *ctrlActor) Advance(now uint64) bool {
	active := a.c.Tick(now)
	if err := a.c.Err(); err != nil && a.sys.err == nil {
		a.sys.err = err
	}
	return active
}
func (a *ctrlActor) NextEventAt(now uint64) uint64 { return a.c.NextEventAt(now) }

// crashActor injects the Section 7 power failure. It evaluates before
// the cores each processed cycle (the classic loop checked the
// threshold at the top of each iteration) and schedules its own checks
// densely enough that the crossing cycle is always processed: with n
// cores retiring at most one instruction per cycle each, the threshold
// cannot arrive sooner than (remaining ÷ n) cycles out.
type crashActor struct {
	sys *System
}

func (a *crashActor) Advance(now uint64) bool {
	s := a.sys
	if !s.crashPending {
		return false
	}
	if s.retired(now) < s.cfg.CrashAtInstr {
		return false
	}
	s.crashPending = false
	// Power failure: in-flight work drains (the devices finish their
	// pulses), then volatile metadata is lost and the lazy conservative
	// correction runs.
	if err := s.drain(); err != nil {
		s.err = err
		return false
	}
	for _, sch := range s.schemes {
		if cr, ok := sch.(core.CrashRecoverable); ok {
			cr.CrashRecover()
		}
	}
	snap := s.reg.Snapshot()
	s.preCrash = &snap
	// The cores were frozen while the controllers drained: resume them at
	// the post-drain cycle with no skipped span to account for.
	resume := s.clock.Now()
	for _, ca := range s.coreActs {
		ca.next = resume
	}
	return true
}

func (a *crashActor) NextEventAt(now uint64) uint64 {
	s := a.sys
	if !s.crashPending {
		return engine.Horizon
	}
	// Count cycle now in: the cores the engine did not advance at now
	// have not applied it yet.
	total := s.retired(now + 1)
	if total >= s.cfg.CrashAtInstr {
		return now + 1
	}
	step := (s.cfg.CrashAtInstr - total) / uint64(len(s.cores))
	if step == 0 {
		step = 1
	}
	return now + step
}
