// Package sim assembles the full system — trace-driven cores, per-channel
// memory controllers, the ReRAM content store, a write scheme, energy
// metering and optional wear leveling — and runs the paper's experiments.
//
// A run is a System driven through five phases (build → warm → execute →
// drain → collect) by an event engine that skips cycles in which no
// component can act; see system.go and docs/ARCHITECTURE.md. Write
// schemes are resolved by name through core's scheme registry, so
// externally registered policies (core.RegisterScheme) run everywhere a
// built-in does.
package sim

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"ladder/internal/core"
	"ladder/internal/fault"
	"ladder/internal/memctrl"
	"ladder/internal/metrics"
	"ladder/internal/remap"
	"ladder/internal/reram"
	"ladder/internal/timeline"
	"ladder/internal/timing"
	"ladder/internal/tracing"
)

// Scheme names accepted by Config.Scheme, aliased from the core registry
// (the canonical home; see core.RegisterScheme).
const (
	SchemeBaseline   = core.SchemeBaseline
	SchemeLocAware   = core.SchemeLocAware
	SchemeOracle     = core.SchemeOracle
	SchemeSplitReset = core.SchemeSplitReset
	SchemeBLP        = core.SchemeBLP
	SchemeBasic      = core.SchemeBasic
	SchemeEst        = core.SchemeEst
	SchemeEstNoShift = core.SchemeEstNoShift
	SchemeHybrid     = core.SchemeHybrid
)

// SchemeNames lists every runnable scheme: the built-ins in evaluation
// order followed by any externally registered ones.
func SchemeNames() []string {
	return core.RegisteredSchemes()
}

// FigureSchemes lists the schemes Figures 12/13/16 compare.
func FigureSchemes() []string {
	return []string{
		SchemeBaseline, SchemeSplitReset, SchemeBLP,
		SchemeBasic, SchemeEst, SchemeHybrid, SchemeOracle,
	}
}

// CoreProgress is one core's snapshot in a ProgressInfo.
type CoreProgress struct {
	Retired     uint64
	Outstanding int
}

// ChannelProgress is one memory channel's snapshot in a ProgressInfo.
type ChannelProgress struct {
	ReadQueue, WriteQueue int
	WriteMode             bool
}

// ProgressInfo is the periodic progress snapshot delivered to
// Config.Progress.
type ProgressInfo struct {
	// Cycle is the simulated cycle the snapshot was taken at.
	Cycle    uint64
	Cores    []CoreProgress
	Channels []ChannelProgress
	// Wall is the host time elapsed since the run started.
	Wall time.Duration
	// InstrRate is the simulator's throughput: instructions retired per
	// host second since the run started.
	InstrRate float64
	// Metrics and Spans are populated only when Config.ProgressDetail is
	// set: a frozen instrument snapshot and the most recent traced spans
	// (nil when tracing is off). Both are rebuilt per snapshot, so
	// consumers may retain them (the introspection server does).
	Metrics *metrics.Snapshot
	Spans   []tracing.Span
}

// Config describes one simulation run.
type Config struct {
	// Workload is a single benchmark name or a Table 3 mix name.
	Workload string
	// Scheme selects the write policy (see Scheme constants; any name
	// registered via core.RegisterScheme resolves).
	Scheme string
	// InstrPerCore is the per-core instruction budget (0 = DefaultInstr).
	InstrPerCore uint64
	// Seed makes the run deterministic.
	Seed int64
	// Geom is the memory geometry (zero value = paper default); any
	// other value must pass reram.Geometry.Validate.
	Geom reram.Geometry
	// Tables supplies the timing tables; nil loads the default 512×512
	// set (embedded data, decoded once per process).
	Tables *timing.TableSet
	// ShrinkRange > 1 compresses the timing tables' dynamic range
	// (Section 7's process-variation ablation); 0 and 1 leave it as is.
	ShrinkRange float64
	// WearLeveling enables vertical wear leveling.
	WearLeveling bool
	// VWLMode selects the leveler: "segment" (default; Start-Gap over
	// 1 MB segments, preserving page→wordline-group contiguity) or
	// "line" (line-granularity scatter in the Security-Refresh style,
	// which distributes a page's blocks over different wordline groups —
	// the case Section 6.4 warns deteriorates LRS-metadata locality).
	VWLMode string
	// VWLPeriod is the number of writes between gap moves (0 =
	// DefaultVWLPeriod).
	VWLPeriod int
	// ResidentLevel controls the synthetic resident-data density 2^-level
	// prefilled into touched wordline groups (0 = default level 2 ≈ 0.25
	// ones-density; negative = fresh all-HRS device). A run's store reads
	// the rows through the shared-input registry's reram.Resident (see
	// reram.Store.UseResident).
	ResidentLevel int
	// Verify checks end-of-run read-back correctness for every written
	// line (shift/FNW round trip through the device).
	Verify bool
	// CrashAtInstr, when non-zero, injects a power failure after the
	// given number of total retired instructions: the controllers drain,
	// volatile LRS-metadata is lost, and the lazy conservative correction
	// of Section 7 runs before execution resumes.
	CrashAtInstr uint64
	// MetaCache overrides the LRS-metadata cache configuration (zero
	// value = the paper's 64 KB 4-way cache); any other value must pass
	// core.MetaCacheConfig.Validate. Used by the cache-size ablation.
	MetaCache core.MetaCacheConfig
	// HybridLowRows overrides LADDER-Hybrid's precision control register:
	// the number of driver-near rows using 1-bit counters. 0 keeps the
	// paper's 128; -1 disables the low-precision region entirely, which
	// makes the run LADDER-Est's. Other schemes ignore it.
	HybridLowRows int
	// TraceFile replays a recorded access trace (see cmd/tracegen) on a
	// single core instead of synthesizing the workload; Workload becomes a
	// label only. The trace's addresses must fit the configured geometry.
	TraceFile string
	// Progress, when set, receives a periodic snapshot of run state every
	// ProgressEvery cycles (long-run liveness without any printf in the
	// hot loop). The callback runs on the run's single simulation
	// goroutine, so it needs no locking against the run itself. As
	// Options.Base.Progress it is shared by every cell of a grid, and
	// with Options.Jobs > 1 cells call it concurrently.
	Progress func(ProgressInfo) `json:"-"`
	// ProgressEvery is the progress-callback period in cycles (0 = every
	// 250k cycles, i.e. 62.5 simulated microseconds, often enough that
	// short runs are observable and a stall watchdog hears a beat).
	ProgressEvery uint64
	// ProgressDetail additionally populates ProgressInfo.Metrics and
	// ProgressInfo.Spans on every snapshot (the introspection server's
	// live documents). Off by default: freezing the registry per snapshot
	// is not free.
	ProgressDetail bool
	// TraceSample enables transaction-lifecycle tracing, recording every
	// Nth memory transaction as a span (see package tracing). 0 disables
	// tracing; 1 records everything the ring retains.
	TraceSample int
	// TraceCapacity sizes the span ring buffer (0 = tracing.DefaultCapacity).
	TraceCapacity int
	// TraceSlowest sizes the slowest-writes digest (0 =
	// tracing.DefaultSlowestK).
	TraceSlowest int
	// FaultRate enables write-fault injection: the base transient-failure
	// probability of a zero-margin RESET pulse (see package fault and
	// docs/FAULTS.md). 0 — the default — disables injection entirely and
	// keeps runs cycle-identical to pre-fault builds.
	FaultRate float64
	// FaultSeed seeds the injector's private PRNG stream (0 = reuse Seed).
	FaultSeed int64
	// RetryMax caps program-and-verify reissues per write (0 =
	// fault.DefaultRetryMax, -1 = no reissues at all: transient failures
	// remap directly).
	RetryMax int
	// SpareRows sizes each bank's spare-row pool (0 =
	// remap.DefaultSpareRows, -1 = no spares). A run that exhausts a pool
	// on the fault path fails with an error from Run.
	SpareRows int
	// RemapPenaltyNs is the address-decoder indirection latency charged
	// on accesses to spare-remapped rows (0 = remap.DefaultPenaltyNs,
	// negative = free indirection).
	RemapPenaltyNs float64
	// ProactiveWearLimit, when positive, retires rows to spares once
	// their effective write count reaches the limit — wear-limit-
	// triggered proactive remapping through the address decoder,
	// best-effort when the pool empties. Used by the lifetime sweep.
	ProactiveWearLimit uint64
	// TimelineInterval enables the timeline epoch sampler: every
	// TimelineInterval simulated cycles the run's registry and headline
	// scalars are diffed into a per-epoch record (see package timeline
	// and docs/TIMELINE.md). 0 — the default — disables sampling.
	// Enabling it is observer-only: its engine hook adds no processed
	// cycle, so the run's report apart from its timeline section is the
	// same either way (pinned by TestTimelineObserverNeutral).
	TimelineInterval uint64
	// TimelineOnEpoch, when set, receives each epoch as it closes — the
	// live-streaming hook behind the introspection server's /timeline
	// feed. Runs on the simulation goroutine, like Progress.
	TimelineOnEpoch func(timeline.Epoch) `json:"-"`
}

func (c *Config) applyDefaults() error {
	if c.Workload == "" && c.TraceFile == "" {
		return fmt.Errorf("sim: workload required")
	}
	if c.Scheme == "" {
		c.Scheme = SchemeBaseline
	}
	// Every later scheme comparison, and Result.Scheme, sees the
	// registered spelling.
	scheme, err := core.SchemeName(c.Scheme)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	c.Scheme = scheme
	if err := c.validateKnobs(); err != nil {
		return err
	}
	if c.InstrPerCore == 0 {
		c.InstrPerCore = DefaultInstr
	}
	c.Geom = c.Geometry()
	if c.Tables == nil {
		ts, err := timing.DefaultTableSet()
		if err != nil {
			return fmt.Errorf("sim: loading default tables: %w", err)
		}
		c.Tables = ts
	}
	if c.ResidentLevel == 0 {
		c.ResidentLevel = 2
	}
	return nil
}

// validateKnobs rejects knob values outside each knob's documented
// range (NaN included). A knob another package consumes is checked by
// that package's Validate, run here on the config System.build builds from
// it (Geometry, metaCache, faultConfig, remapConfig), so each range is
// written once. The rest are sim's own: without them a negative
// TraceSample, a ShrinkRange below 1 or an unknown VWLMode would run
// with the feature silently off, a negative TraceCapacity would run the
// default ring, and a HybridLowRows below -1 would act as -1.
func (c *Config) validateKnobs() error {
	switch {
	case c.TraceSample < 0:
		return fmt.Errorf("sim: TraceSample must be >= 0 (0 disables tracing), got %d", c.TraceSample)
	case c.TraceCapacity < 0:
		return fmt.Errorf("sim: TraceCapacity must be >= 0 (0 selects the default ring), got %d", c.TraceCapacity)
	case !(c.ShrinkRange == 0 || c.ShrinkRange >= 1):
		return fmt.Errorf("sim: ShrinkRange must be 0 (off) or >= 1, got %g", c.ShrinkRange)
	case c.HybridLowRows < -1:
		return fmt.Errorf("sim: HybridLowRows must be >= -1 (-1 disables the low-precision region), got %d", c.HybridLowRows)
	case c.VWLMode != "" && c.VWLMode != "segment" && c.VWLMode != "line":
		return fmt.Errorf("sim: unknown VWLMode %q (want segment or line)", c.VWLMode)
	}
	if err := c.Geometry().Validate(); err != nil {
		return fmt.Errorf("sim: Geom: %w", err)
	}
	if err := c.metaCache().Validate(); err != nil {
		return fmt.Errorf("sim: MetaCache: %w", err)
	}
	if err := c.faultConfig().Validate(); err != nil {
		return fmt.Errorf("sim: FaultRate %g, RetryMax %d: %w", c.FaultRate, c.RetryMax, err)
	}
	if err := c.remapConfig().Validate(); err != nil {
		return fmt.Errorf("sim: SpareRows %d, RemapPenaltyNs %g, VWLPeriod %d: %w", c.SpareRows, c.RemapPenaltyNs, c.VWLPeriod, err)
	}
	return nil
}

// Geometry is the run's memory geometry: Geom, or the paper default when
// Geom is unset.
func (c *Config) Geometry() reram.Geometry {
	if c.Geom == (reram.Geometry{}) {
		return reram.DefaultGeometry()
	}
	return c.Geom
}

// metaCache is the LRS-metadata cache configuration every scheme
// instance of the run builds: MetaCache, or the paper's when unset.
func (c *Config) metaCache() core.MetaCacheConfig {
	if c.MetaCache == (core.MetaCacheConfig{}) {
		return core.DefaultMetaCacheConfig()
	}
	return c.MetaCache
}

// faultConfig is the write-fault injector configuration the run builds
// when FaultRate > 0.
func (c *Config) faultConfig() fault.Config {
	return fault.Config{Rate: c.FaultRate, Seed: cmp.Or(c.FaultSeed, c.Seed), RetryMax: c.RetryMax}
}

// remapConfig is the address decoder configuration the run builds when
// segment-mode wear leveling, fault injection or proactive retirement
// needs indirection. Segment-mode leveling is the decoder's start-gap
// rotation; line mode stays outside the decoder (buildLineVWL).
func (c *Config) remapConfig() remap.Config {
	rc := remap.Config{
		Geom:               c.Geometry(),
		TicksPerNs:         memctrl.TicksPerNs,
		SpareRows:          c.SpareRows,
		PenaltyNs:          c.RemapPenaltyNs,
		ProactiveWearLimit: c.ProactiveWearLimit,
	}
	if c.WearLeveling && c.VWLMode != "line" {
		rc.GapSegmentRows = VWLSegmentRows
		rc.GapPeriod = cmp.Or(c.VWLPeriod, DefaultVWLPeriod)
	}
	return rc
}

// Defaults of Config.InstrPerCore (and Options.Instr) and of
// Config.VWLPeriod.
const (
	DefaultInstr     = 200_000
	DefaultVWLPeriod = 128
)

// VWLSegmentRows is the segment-mode wear leveler's rotation unit: 256
// wordline groups (1 MB) move together, so a page keeps its metadata
// line (Figure 18b). The lifetime sweep's endurance model counts the
// decoder's start-gap segments in it.
const VWLSegmentRows = 256

// Result reports one run's measurements.
type Result struct {
	Workload string
	Scheme   string
	// PerCoreIPC is instructions per cycle for each core.
	PerCoreIPC []float64
	// Ticks is the total simulated time (CPU cycles at 4 GHz).
	Ticks uint64
	// Stats holds the traffic/latency/counter accounting, read from the
	// final metrics snapshot (core.StatsFrom).
	Stats core.Stats
	// Energy in nanojoule-scaled units.
	ReadNJ, WriteNJ float64
	// TotalStoreWrites, MaxRowWrites and TouchedRows feed the lifetime
	// model (metadata writes persist through the cache backing, so the
	// store counts data writes only; metadata traffic is in
	// Stats.MetaWrites). TouchedRows is the number of distinct wordline
	// groups written at least once; rows only read, such as those
	// LADDER-Hybrid's metadata initialization prefills, do not count.
	TotalStoreWrites uint64
	MaxRowWrites     uint64
	TouchedRows      int
	// PreCrashStats/PostCrashStats split the accounting around an
	// injected crash (CrashAtInstr runs only): the metrics snapshot at
	// recovery, and the final snapshot minus it. The two sum to Stats.
	PreCrashStats, PostCrashStats *core.Stats
	// InstructionsRetired is the total across cores.
	InstructionsRetired uint64
	// WallClock is the host time the run took (simulator performance,
	// not simulated time).
	WallClock time.Duration
	// Metrics is the run's instrument registry — queue-occupancy gauges,
	// per-channel RESET-latency histograms, cache and estimator
	// counters; see docs/METRICS.md. Always non-nil from Run. Excluded
	// from JSON: reports serialize its Snapshot instead (see Report).
	Metrics *metrics.Registry `json:"-"`
	// Trace is the run's span collector, non-nil only when
	// Config.TraceSample > 0. Excluded from JSON: reports embed its
	// Summary, and the Chrome trace is written separately
	// (Trace.WriteChromeTrace).
	Trace *tracing.Collector `json:"-"`
	// Faults holds the fault-injection accounting, read from the final
	// metrics snapshot (fault.StatsFrom); non-nil only when
	// Config.FaultRate > 0.
	Faults *fault.Stats
	// Remap holds the address decoder's accounting (gap moves, spare
	// remaps, lookups, penalty ticks), read from the final metrics
	// snapshot (remap.StatsFrom); non-nil whenever the decoder was
	// active — wear leveling, fault injection or proactive retirement.
	Remap *remap.Stats
	// Timeline is the run's per-epoch series, non-nil only when
	// Config.TimelineInterval > 0. Its per-epoch deltas sum exactly to
	// the end-of-run aggregates (pinned by TestTimelineDeltasSumToAggregates).
	Timeline *timeline.Timeline
}

// AvgIPC returns the arithmetic mean per-core IPC.
func (r *Result) AvgIPC() float64 {
	if len(r.PerCoreIPC) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range r.PerCoreIPC {
		s += v
	}
	return s / float64(len(r.PerCoreIPC))
}

// WeightedSpeedup computes the weighted speedup against a baseline run of
// the same workload: mean over cores of IPC_i(scheme)/IPC_i(baseline).
func (r *Result) WeightedSpeedup(baseline *Result) float64 {
	if baseline == nil || len(baseline.PerCoreIPC) != len(r.PerCoreIPC) || len(r.PerCoreIPC) == 0 {
		return 0
	}
	s := 0.0
	for i, v := range r.PerCoreIPC {
		if baseline.PerCoreIPC[i] > 0 {
			s += v / baseline.PerCoreIPC[i]
		}
	}
	return s / float64(len(r.PerCoreIPC))
}

// shrunk returns a table set with its dynamic range compressed by factor.
func shrunk(ts *timing.TableSet, factor float64) *timing.TableSet {
	out := &timing.TableSet{
		Model: ts.Model,
		WL:    ts.WL.ShrinkRange(factor),
		BL:    ts.BL.ShrinkRange(factor),
		Half:  ts.Half.ShrinkRange(factor),
	}
	out.WorstNs = out.WL.WorstCase()
	return out
}

// Run executes one simulation to completion and returns its
// measurements: RunCtx under a context that is never canceled.
func Run(cfg Config) (*Result, error) { return RunCtx(context.Background(), cfg) }

// RunCtx builds a System and drives it through its phases under ctx: the
// execute and drain phases poll ctx every interruptCheckEvery steps and
// abort with the context's cancellation cause once it is canceled or its
// deadline passes. The poll happens at step granularity — a run stops
// within milliseconds of cancellation, never mid-cycle, so an aborted
// run leaves no partial-cycle state behind (it returns no Result at
// all). This is how service-mode deadlines and watchdogs stop a running
// simulation.
//
// Every run, finished or not, ends at one release point (System.release)
// that hands its storage to later runs; the Result is all that outlives
// it.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	sys := &System{ctx: context.Background()}
	if ctx != nil {
		sys.ctx = ctx
	}
	defer sys.release()
	if err := sys.build(cfg); err != nil {
		return nil, err
	}
	for _, phase := range []func() error{sys.warm, sys.execute, sys.drainRemaining} {
		if err := phase(); err != nil {
			return nil, err
		}
	}
	return sys.collect()
}

// exportRunMetrics publishes the engine's, cores' and metadata caches'
// end-of-run scalars as registry counters, so a single Snapshot carries
// the whole run; every other count lives in the registry from its first
// event. Every name is cataloged in docs/METRICS.md.
func exportRunMetrics(reg *metrics.Registry, res *Result, schemes []core.Scheme) {
	reg.SetCounter("sim.ticks", res.Ticks)
	reg.SetCounter("sim.instructions_retired", res.InstructionsRetired)
	reg.SetCounter("sim.wall_clock_us", uint64(res.WallClock.Microseconds()))
	var evictions uint64
	for _, s := range schemes {
		if c, ok := s.(interface{ Cache() *core.MetaCache }); ok {
			evictions += c.Cache().Evictions()
		}
	}
	reg.SetCounter("core.meta_cache.evictions", evictions)
}
