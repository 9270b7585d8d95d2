// Package remap implements a WoLFRaM-style programmable address decoder
// (Yavits et al., arxiv 2010.02825): one per-device indirection layer that
// owns every logical→physical row translation the simulator performs —
// start-gap vertical wear leveling, spare-row substitution after
// unrecoverable write faults, and wear-limit-triggered proactive row
// retirement.
//
// Timing model: Resolve is called once per access at enqueue time and
// applies the start-gap wordline shift (the gap position is latched when
// the request enters the queue). The spare-row indirection penalty — a
// small CAM lookup in the bank periphery — is charged when the access
// dispatches, via PenaltyTicks, because the remap table may have grown
// between enqueue and dispatch. Both calls are nil-receiver safe; a nil
// *Decoder is the disabled state and resolves every location to itself
// at zero cost, so default-configuration runs stay cycle-identical to a
// build without this package.
//
// Determinism contract: the decoder holds no randomness. Its state
// advances only through RecordWrite, RemapSpare and MaybeRetire, all
// driven by the single-goroutine simulation in completion order, so
// fixed-seed runs yield byte-identical decoder statistics.
package remap

import (
	"cmp"
	"fmt"
	"math"

	"ladder/internal/metrics"
	"ladder/internal/reram"
)

// UseDefault is the zero value of a knob, which selects the knob's
// default: SpareRows = UseDefault selects DefaultSpareRows while
// SpareRows = -1 means no spare pool at all, and PenaltyNs = UseDefault
// selects DefaultPenaltyNs while a negative PenaltyNs models a free
// indirection.
const UseDefault = 0

// Default knobs; see Config.
const (
	// DefaultSpareRows is each bank's spare-row pool size.
	DefaultSpareRows = 32
	// DefaultPenaltyNs is the remap-table indirection charged on every
	// access to a remapped row (a small CAM lookup in the bank
	// periphery).
	DefaultPenaltyNs = 2
)

// Config parameterizes a Decoder.
type Config struct {
	// Geom is the device geometry the decoder translates within.
	Geom reram.Geometry
	// TicksPerNs converts the nanosecond penalty model into the
	// controller's tick domain (memctrl.TicksPerNs for the simulator).
	TicksPerNs float64
	// GapSegmentRows sets the start-gap rotation granularity in device
	// rows; 0 disables vertical wear leveling.
	GapSegmentRows int
	// GapPeriod is the number of recorded writes between gap moves
	// (required positive when GapSegmentRows > 0).
	GapPeriod int
	// SpareRows sizes each bank's spare-row pool: 0 selects
	// DefaultSpareRows, -1 disables spare substitution entirely.
	SpareRows int
	// PenaltyNs is the indirection latency charged on accesses to
	// remapped rows: 0 selects DefaultPenaltyNs, a negative value is
	// free.
	PenaltyNs float64
	// ProactiveWearLimit, when positive, retires a row to a spare once
	// its effective write count reaches the limit — before the fault
	// model ever declares it permanently failed. Retirement is
	// best-effort: an empty pool skips it rather than failing the run.
	ProactiveWearLimit uint64
}

// Validate reports whether the configuration is usable: the one range
// check of each knob but Geom, which reram.Geometry.Validate checks.
func (c Config) Validate() error {
	if err := c.Geom.Validate(); err != nil {
		return fmt.Errorf("remap: %w", err)
	}
	switch {
	case !(c.TicksPerNs > 0) || math.IsInf(c.TicksPerNs, 1):
		return fmt.Errorf("remap: ticks-per-ns %v must be positive and finite", c.TicksPerNs)
	case c.GapSegmentRows < 0:
		return fmt.Errorf("remap: gap segment rows %d must be non-negative", c.GapSegmentRows)
	case c.GapSegmentRows > 0 && c.GapPeriod <= 0:
		return fmt.Errorf("remap: gap-move period %d must be positive", c.GapPeriod)
	case c.SpareRows < -1:
		return fmt.Errorf("remap: spare-row pool %d must be >= -1 (-1 disables the pool, 0 selects the default)", c.SpareRows)
	case math.IsNaN(c.PenaltyNs) || math.IsInf(c.PenaltyNs, 0):
		return fmt.Errorf("remap: penalty %v ns must be finite (0 selects the default, negative makes indirection free)", c.PenaltyNs)
	}
	return nil
}

// Counter names: Instrument fetches them, StatsFrom reads them back.
const (
	MetricGapMoves     = "remap.gap_moves"
	MetricSpareRemaps  = "remap.spare_remaps"
	MetricLookups      = "remap.decoder_lookups"
	MetricPenaltyTicks = "remap.penalty_ticks"
)

// Stats is the decoder's cumulative accounting, embedded in run results
// and the report's remap section. All counters are mergeable by
// addition across grid cells.
type Stats struct {
	// GapMoves counts start-gap rotations performed.
	GapMoves uint64 `json:"gap_moves"`
	// SpareRemaps counts rows relocated to a spare (fault-driven and
	// proactive). Each relocation takes one pool slot, so SparesUsed
	// equals SpareRemaps.
	SpareRemaps uint64 `json:"spare_remaps"`
	SparesUsed  uint64 `json:"spares_used"`
	// Lookups counts Resolve calls — one per enqueued data access.
	Lookups uint64 `json:"decoder_lookups"`
	// PenaltyTicks accumulates the indirection ticks actually charged
	// at dispatch on remapped-row accesses.
	PenaltyTicks uint64 `json:"penalty_ticks"`
}

// StatsFrom maps a snapshot of the decoder's counters onto Stats.
func StatsFrom(s metrics.Snapshot) Stats {
	c := s.Counters
	return Stats{
		GapMoves:     c[MetricGapMoves],
		SpareRemaps:  c[MetricSpareRemaps],
		SparesUsed:   c[MetricSpareRemaps],
		Lookups:      c[MetricLookups],
		PenaltyTicks: c[MetricPenaltyTicks],
	}
}

// Merge adds o's counters into s (grid-cell aggregation).
func (s *Stats) Merge(o Stats) {
	s.GapMoves += o.GapMoves
	s.SpareRemaps += o.SpareRemaps
	s.SparesUsed += o.SparesUsed
	s.Lookups += o.Lookups
	s.PenaltyTicks += o.PenaltyTicks
}

// spareEntry records one row's relocation to a spare: baseWrites is the
// row's write count at remap time, so wear on the fresh spare is
// counted from zero.
type spareEntry struct {
	baseWrites uint64
}

// Decoder is the programmable address decoder for one simulated device.
// It is single-goroutine like the simulation that drives it; a nil
// *Decoder means indirection is disabled and every method is safe to
// call on it.
type Decoder struct {
	geom         reram.Geometry
	gap          *StartGap
	segRows      uint64
	matRows      int
	spareCap     int
	penaltyTicks uint64
	proactive    uint64
	// remapped maps a global row to its spare-row relocation.
	remapped map[uint64]spareEntry
	// spareUsed counts consumed pool slots per bank key.
	spareUsed map[int]int
	// Counters fetched by Instrument; nil (counting nothing) until then.
	mGapMoves, mSpareRemaps, mLookups, mPenalty *metrics.Counter
}

// NewDecoder validates cfg and builds a decoder, resolving SpareRows'
// and PenaltyNs' 0 (the default) and negative values (off).
func NewDecoder(cfg Config) (*Decoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Decoder{
		geom:         cfg.Geom,
		matRows:      cfg.Geom.MatRows,
		spareCap:     max(cmp.Or(cfg.SpareRows, DefaultSpareRows), 0),
		penaltyTicks: uint64(math.Ceil(max(cmp.Or(cfg.PenaltyNs, DefaultPenaltyNs), 0) * cfg.TicksPerNs)),
		proactive:    cfg.ProactiveWearLimit,
		remapped:     make(map[uint64]spareEntry),
		spareUsed:    make(map[int]int),
	}
	if cfg.GapSegmentRows > 0 {
		gap, err := NewStartGap(gapSegments(cfg.Geom, cfg.GapSegmentRows), cfg.GapPeriod)
		if err != nil {
			return nil, err
		}
		d.gap = gap
		d.segRows = uint64(cfg.GapSegmentRows)
	}
	return d, nil
}

// Instrument fetches (creating on first use) the decoder's counters
// from reg. Call before the first Resolve; a decoder never instrumented
// counts nothing. Safe on nil (registers nothing).
func (d *Decoder) Instrument(reg *metrics.Registry) {
	if d == nil {
		return
	}
	d.mGapMoves = reg.Counter(MetricGapMoves)
	d.mSpareRemaps = reg.Counter(MetricSpareRemaps)
	d.mLookups = reg.Counter(MetricLookups)
	d.mPenalty = reg.Counter(MetricPenaltyTicks)
}

// Resolve maps a decoded logical location to its current physical
// location and returns the indirection penalty (in ticks) an access to
// it would pay right now. The start-gap rotation shifts the wordline
// within the mat; the penalty is informational at enqueue time — the
// controller charges the authoritative value at dispatch via
// PenaltyTicks. Safe on nil (identity, zero penalty).
func (d *Decoder) Resolve(loc reram.Location) (reram.Location, uint64) {
	if d == nil {
		return loc, 0
	}
	d.mLookups.Inc()
	if d.gap != nil {
		seg := int(d.geom.GlobalRow(loc) / d.segRows)
		if phys, err := d.gap.Phys(seg % d.gap.Segments()); err == nil {
			loc.WL = (loc.WL + phys) % d.matRows
		}
	}
	return loc, d.lookupPenalty(loc)
}

// lookupPenalty returns the ticks an access to loc pays, without
// recording the charge. The gap shift moves only the wordline, never
// the global row, so either the logical or resolved location keys the
// same table entry.
func (d *Decoder) lookupPenalty(loc reram.Location) uint64 {
	if len(d.remapped) == 0 {
		return 0
	}
	if _, ok := d.remapped[d.geom.GlobalRow(loc)]; !ok {
		return 0
	}
	return d.penaltyTicks
}

// PenaltyTicks charges and returns the dispatch-time indirection
// penalty for an access to loc: zero unless the row sits in the spare
// remap table. Safe on nil.
func (d *Decoder) PenaltyTicks(loc reram.Location) uint64 {
	if d == nil {
		return 0
	}
	p := d.lookupPenalty(loc)
	d.mPenalty.Add(p)
	return p
}

// RecordWrite advances the start-gap write counter and reports whether
// a gap move happened — the move costs one segment copy, which callers
// charge as maintenance write traffic. Safe on nil and on decoders
// without gap leveling (always false).
func (d *Decoder) RecordWrite() bool {
	if d == nil || d.gap == nil {
		return false
	}
	if !d.gap.RecordWrite() {
		return false
	}
	d.mGapMoves.Inc()
	return true
}

// RemapSpare relocates a global row to a spare from its bank's pool,
// recording the wear baseline so the spare starts fresh. A row already
// remapped consumes another slot (its spare wore out). The returned
// error means the pool is exhausted — the device can no longer hide the
// failure and the run must surface it.
func (d *Decoder) RemapSpare(bank int, globalRow uint64, rowWrites uint64) error {
	if d == nil || d.spareUsed[bank] >= d.spareCap {
		pool := 0
		if d != nil {
			pool = d.spareCap
		}
		return fmt.Errorf("remap: bank %d spare-row pool exhausted (%d spares used); row %d unrecoverable",
			bank, pool, globalRow)
	}
	d.spareUsed[bank]++
	d.remapped[globalRow] = spareEntry{baseWrites: rowWrites}
	d.mSpareRemaps.Inc()
	return nil
}

// SpareBaseWrites returns the write count the row carried when it was
// remapped to its current spare, or zero for rows never remapped: the
// caller subtracts it so wear on the fresh spare counts from zero.
// Safe on nil.
func (d *Decoder) SpareBaseWrites(globalRow uint64) uint64 {
	if d == nil || len(d.remapped) == 0 {
		return 0
	}
	return d.remapped[globalRow].baseWrites
}

// ProactiveEnabled reports whether wear-limit-triggered retirement is
// configured. Safe on nil; controllers gate the per-write row-wear
// lookup on it so disabled runs pay one branch.
func (d *Decoder) ProactiveEnabled() bool {
	return d != nil && d.proactive > 0
}

// MaybeRetire proactively remaps a row whose effective write count
// (wear since its last remap) has reached the proactive limit. Unlike
// RemapSpare, retirement is best-effort: an exhausted pool returns
// false and the row keeps running toward the fault model's permanent
// verdict instead of failing the run. Safe on nil.
func (d *Decoder) MaybeRetire(bank int, globalRow uint64, rowWrites uint64) bool {
	if d == nil || d.proactive == 0 {
		return false
	}
	if rowWrites-d.SpareBaseWrites(globalRow) < d.proactive {
		return false
	}
	if d.spareUsed[bank] >= d.spareCap {
		return false
	}
	d.spareUsed[bank]++
	d.remapped[globalRow] = spareEntry{baseWrites: rowWrites}
	d.mSpareRemaps.Inc()
	return true
}
