// Package core implements the LADDER control logic and every write scheme
// the paper studies: the pessimistic baseline, the location-aware and
// Oracle idealizations (Figure 2), the Split-reset and BLP prior works,
// and the three LADDER variants — Basic (accurate LRS counters with stale
// memory block reads, Section 3.3), Est (partial-counter estimation with
// intra-line bit shifting, Section 4.1) and Hybrid (multi-granularity
// counters, Section 4.2). Est and Hybrid are one type: Est is Hybrid with
// no low-precision rows.
//
// A Scheme plugs into the memory controller (package memctrl): the
// controller calls Enqueue when a data write enters the write queue,
// delivers auxiliary read completions, asks Ready/Latency at dispatch, and
// calls Complete when the device finishes.
//
// Schemes share an Env — geometry, content store, timing tables and the
// run's metrics.Registry, which holds every traffic, latency and FNW
// count (Instruments; StatsFrom reads them back) as well as the
// estimator and metadata-cache instruments (Sections 4.1/4.3; catalog
// in docs/METRICS.md).
//
// Schemes are constructed by name through a registry (RegisterScheme /
// NewScheme): the built-ins register at init in the paper's evaluation
// order, and an externally registered SchemeFactory is immediately
// runnable everywhere a built-in is — the simulator, laddersim and its
// -exp experiments all resolve Config.Scheme through NewScheme and
// hold no scheme switch of their own.
package core

import (
	"ladder/internal/bits"
	"ladder/internal/metrics"
	"ladder/internal/reram"
	"ladder/internal/timing"
)

// AuxKind classifies auxiliary read requests a scheme generates.
type AuxKind int

const (
	// AuxSMB is a stale-memory-block read: the current content of the
	// data line, needed by LADDER-Basic to compute exact counter deltas.
	AuxSMB AuxKind = iota
	// AuxMeta is an LRS-metadata line read from the reserved region.
	AuxMeta
)

// AuxRead is an auxiliary read the controller must issue on behalf of a
// write request.
type AuxRead struct {
	Kind AuxKind
	// Key identifies the target: the data line address for AuxSMB, the
	// metadata line key for AuxMeta.
	Key uint64
	// Loc is the physical location, for bank timing.
	Loc reram.Location
}

// MetaWriteback is a dirty LRS-metadata line evicted from the metadata
// cache; the controller enqueues it as a metadata write.
type MetaWriteback struct {
	Key uint64
	Loc reram.Location
}

// WriteRequest is a data write resident in the controller's write queue,
// extended with the per-scheme fields the paper adds to write queue
// entries (SMB storage, Present flag, partial counters).
type WriteRequest struct {
	// Line and Loc identify the data block.
	Line uint64
	Loc  reram.Location
	// Data is the logical content from the processor.
	Data bits.Line
	// Payload is the content handed to the device after the controller
	// datapath (bit shifting for LADDER-Est/Hybrid); the device may still
	// apply Flip-N-Write on top.
	Payload bits.Line
	// Partial is the packed partial-counter byte computed at enqueue
	// (LADDER-Est/Hybrid).
	Partial uint8
	// WaitSMB/WaitMeta gate dispatch until auxiliary reads complete.
	WaitSMB  bool
	WaitMeta bool
	// Spilled marks a request parked in the spill buffer because its
	// metadata set had no evictable way.
	Spilled bool
	// MetaKeys are the LRS-metadata lines this write needs (one for Est/
	// Hybrid, two for Basic).
	MetaKeys []uint64
	// MetaPending counts metadata fills still in flight for this request.
	MetaPending int
	// Stale is the SMB content once read.
	Stale bits.Line
	// IsMeta marks metadata writebacks travelling through the write queue.
	IsMeta bool
	// MetaKey is the metadata line being written back (IsMeta only).
	MetaKey uint64
	// EnqueueCycle and DispatchCycle time the request's life.
	EnqueueCycle  uint64
	DispatchCycle uint64
	// Clrs is the raw C_lrs count the scheme resolved at dispatch (-1
	// when the scheme has no content knowledge). The tracing layer maps
	// it to the timing-table content bucket.
	Clrs int
	// Retries counts program-and-verify reissues of this write
	// (fault-injection runs; each reissue escalates the pulse one
	// content bucket).
	Retries int
	// TraceRef is the transaction's tracing span reference (0 when the
	// request was not sampled or tracing is off).
	TraceRef uint64
}

// Env exposes the shared facilities schemes operate on.
type Env struct {
	Geom   reram.Geometry
	Store  *reram.Store
	Tables *timing.TableSet
	// Deprecated: ignored; counts live in Metrics.
	Stats *Stats
	// Metrics is the run's instrument registry (see docs/METRICS.md).
	// Required: NewScheme and memctrl.NewController reject a nil one.
	Metrics *metrics.Registry
}

// Scheme is the per-write-policy the memory controller drives.
type Scheme interface {
	// Enqueue prepares a freshly queued data write (encodes the payload,
	// computes partial counters) and returns the auxiliary reads to issue
	// plus any dirty metadata evictions displaced by cache reservations.
	// Requests whose metadata set is saturated are marked Spilled and get
	// their aux reads later via RetrySpill.
	Enqueue(req *WriteRequest) ([]AuxRead, []MetaWriteback)
	// SMBArrived delivers a completed stale-memory-block read.
	SMBArrived(req *WriteRequest, stale bits.Line)
	// MetaArrived delivers a completed metadata line read; every queued
	// request waiting on that key becomes metadata-ready.
	MetaArrived(key uint64)
	// RetrySpill re-attempts metadata reservation for spilled requests;
	// the controller calls it when switching between read and write mode.
	// It returns newly issueable aux reads and displaced dirty evictions.
	RetrySpill() ([]AuxRead, []MetaWriteback)
	// Ready reports whether the request may be dispatched to the device.
	Ready(req *WriteRequest) bool
	// Latency returns the RESET latency in nanoseconds the controller
	// programs for this write, using whatever content knowledge the
	// scheme has at dispatch time.
	Latency(req *WriteRequest) float64
	// Complete finishes the write: the device has persisted `stored`
	// (post-FNW content) over `old`. Schemes update their metadata here
	// and return dirty evictions to enqueue as metadata writes.
	Complete(req *WriteRequest, old, stored bits.Line) []MetaWriteback
	// DecodeRead converts the payload stored at loc back to logical data
	// (inverse of the controller datapath, used on processor reads).
	DecodeRead(loc reram.Location, payload bits.Line) bits.Line
	// UseConstrainedFNW reports whether the device must apply LADDER's
	// ones-bounded FNW variant instead of classic FNW.
	UseConstrainedFNW() bool
}

// Run-level instrument names. The run's registry is the only place these
// counts live: the controller and the schemes count into the instruments
// NewInstruments fetches, and StatsFrom reads them back out of a snapshot.
const (
	MetricDataReads       = "core.traffic.data_reads"
	MetricDataWrites      = "core.traffic.data_writes"
	MetricSMBReads        = "core.traffic.smb_reads"
	MetricMetaReads       = "core.traffic.meta_reads"
	MetricMetaWrites      = "core.traffic.meta_writes"
	MetricMetaCacheHits   = "core.meta_cache.hits"
	MetricMetaCacheMisses = "core.meta_cache.misses"
	MetricSpillParks      = "core.meta_cache.spill_parks"
	MetricFNWFlips        = "core.fnw.flips"
	MetricFNWCanceled     = "core.fnw.canceled"
	MetricFNWUnits        = "core.fnw.units"
	MetricBitChanges      = "core.bit_changes"
	MetricWriteServiceNs  = "core.write_service_ns"
	MetricReadLatencyNs   = "core.read_latency_ns"
	MetricCounterGap      = "core.est.counter_gap"
)

// Instruments holds the run-level instruments behind Stats (meanings in
// docs/METRICS.md). Holders built from one registry share them, so every
// channel adds into one count, and one float sum in event order.
type Instruments struct {
	DataReads, DataWrites, SMBReads, MetaReads, MetaWrites *metrics.Counter
	MetaCacheHits, MetaCacheMisses, SpillParks             *metrics.Counter
	FNWFlips, FNWCanceled, FNWUnits, BitChanges            *metrics.Counter
	WriteServiceNs, ReadLatencyNs, CounterGap              *metrics.Histogram
}

// Bucket bounds of the run-level histograms, built once: every histogram
// of every run retains its bounds, and neither histograms, their
// snapshots nor merges write them.
var (
	writeServiceBounds = metrics.LinearBounds(32, 32, 24)
	readLatencyBounds  = metrics.ExponentialBounds(1, 2, 24)
	counterGapBounds   = metrics.LinearBounds(-512, 64, 17)
)

// NewInstruments fetches (creating on first use) the run-level
// instruments from reg.
func NewInstruments(reg *metrics.Registry) Instruments {
	return Instruments{
		DataReads:       reg.Counter(MetricDataReads),
		DataWrites:      reg.Counter(MetricDataWrites),
		SMBReads:        reg.Counter(MetricSMBReads),
		MetaReads:       reg.Counter(MetricMetaReads),
		MetaWrites:      reg.Counter(MetricMetaWrites),
		MetaCacheHits:   reg.Counter(MetricMetaCacheHits),
		MetaCacheMisses: reg.Counter(MetricMetaCacheMisses),
		SpillParks:      reg.Counter(MetricSpillParks),
		FNWFlips:        reg.Counter(MetricFNWFlips),
		FNWCanceled:     reg.Counter(MetricFNWCanceled),
		FNWUnits:        reg.Counter(MetricFNWUnits),
		BitChanges:      reg.Counter(MetricBitChanges),
		WriteServiceNs:  reg.Histogram(MetricWriteServiceNs, writeServiceBounds),
		ReadLatencyNs:   reg.Histogram(MetricReadLatencyNs, readLatencyBounds),
		CounterGap:      reg.Histogram(MetricCounterGap, counterGapBounds),
	}
}

// Stats is the per-run accounting the evaluation reports, read out of a
// registry snapshot by StatsFrom.
type Stats struct {
	// Traffic counters.
	DataReads, DataWrites          uint64
	SMBReads, MetaReads            uint64
	MetaWrites                     uint64
	SpillParks                     uint64
	MetaCacheHits, MetaCacheMisses uint64
	// Latency accumulators (nanoseconds).
	WriteServiceNs float64
	ReadLatencyNs  float64
	ReadsTimed     uint64
	// Counter-accuracy tracking for Figure 15: sum of (estimated −
	// accurate) C_lrs at dispatch, and samples.
	CounterDiffSum float64
	CounterDiffN   uint64
	// FNW accounting.
	FNWFlips, FNWCanceled, FNWUnits uint64
	// BitChanges counts cell switches across all writes.
	BitChanges uint64
}

// StatsFrom maps a snapshot of the run-level instruments onto Stats.
func StatsFrom(s metrics.Snapshot) Stats {
	c, h := s.Counters, s.Histograms
	svc, rd, gap := h[MetricWriteServiceNs], h[MetricReadLatencyNs], h[MetricCounterGap]
	return Stats{
		DataReads:       c[MetricDataReads],
		DataWrites:      c[MetricDataWrites],
		SMBReads:        c[MetricSMBReads],
		MetaReads:       c[MetricMetaReads],
		MetaWrites:      c[MetricMetaWrites],
		SpillParks:      c[MetricSpillParks],
		MetaCacheHits:   c[MetricMetaCacheHits],
		MetaCacheMisses: c[MetricMetaCacheMisses],
		WriteServiceNs:  svc.Sum,
		ReadLatencyNs:   rd.Sum,
		ReadsTimed:      rd.Count,
		CounterDiffSum:  gap.Sum,
		CounterDiffN:    gap.Count,
		FNWFlips:        c[MetricFNWFlips],
		FNWCanceled:     c[MetricFNWCanceled],
		FNWUnits:        c[MetricFNWUnits],
		BitChanges:      c[MetricBitChanges],
	}
}

// ratio returns num/den, or 0 when nothing was counted.
func ratio(num float64, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return num / float64(den)
}

// ExtraReadFraction returns the metadata+SMB read overhead relative to
// data reads (Figure 14a's metric).
func (s Stats) ExtraReadFraction() float64 {
	return ratio(float64(s.SMBReads+s.MetaReads), s.DataReads)
}

// ExtraWriteFraction returns the metadata write overhead relative to data
// writes (Figure 14b's metric).
func (s Stats) ExtraWriteFraction() float64 { return ratio(float64(s.MetaWrites), s.DataWrites) }

// LeveledLifetime returns device lifetime under ideal wear leveling
// relative to the same data writes without metadata maintenance (paper
// Section 6.4): leveling spreads every write evenly, so lifetime scales
// inversely with total write traffic, and 3% extra writes keep
// 1/1.03 ≈ 97.1%. A run with no writes keeps its whole lifetime.
func (s Stats) LeveledLifetime() float64 {
	total := s.DataWrites + s.MetaWrites
	if total == 0 {
		return 1
	}
	return float64(s.DataWrites) / float64(total)
}

// AvgWriteServiceNs returns the mean data-write service time.
func (s Stats) AvgWriteServiceNs() float64 { return ratio(s.WriteServiceNs, s.DataWrites) }

// AvgReadLatencyNs returns the mean processor read latency (queuing +
// service).
func (s Stats) AvgReadLatencyNs() float64 { return ratio(s.ReadLatencyNs, s.ReadsTimed) }

// AvgCounterDiff returns the mean (estimated − accurate) LRS-counter gap.
func (s Stats) AvgCounterDiff() float64 { return ratio(s.CounterDiffSum, s.CounterDiffN) }
