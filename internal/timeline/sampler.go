package timeline

import (
	"ladder/internal/fault"
	"ladder/internal/metrics"
	"ladder/internal/remap"
)

// Scalars is the probe's view of the run's cumulative headline
// quantities that live outside the registry, read live at an epoch
// boundary. Everything except the queue depths is a monotone running
// total; the sampler diffs consecutive probes into per-epoch deltas.
type Scalars struct {
	Instructions uint64
	StoreWrites  uint64
	ReadNJ       float64
	WriteNJ      float64
	// ReadQueue/WriteQueue are instantaneous per-channel depths at the
	// boundary, recorded as-is.
	ReadQueue  []int
	WriteQueue []int
}

// Config parameterizes a Sampler.
type Config struct {
	// Interval is the sampling period in simulated cycles (required).
	Interval uint64
	// Registry is the run's instrument registry; its counters and
	// histograms are diffed per epoch. May be nil (scalars only).
	Registry *metrics.Registry
	// Probe reads the run's live cumulative scalars as of the top of
	// cycle now, the closing epoch's boundary; called once per closed
	// epoch, on the simulation goroutine. May be nil.
	Probe func(now uint64) Scalars
	// OnEpoch, when set, receives each epoch as it closes (live
	// streaming), on the simulation goroutine.
	OnEpoch func(Epoch)
}

// Sampler accumulates the per-epoch series. It is driven from the
// engine's observer hook (Sample) on the single simulation goroutine
// and is strictly an observer: it reads registry snapshots and probe
// scalars, never simulation state it could perturb.
type Sampler struct {
	cfg Config
	// factor is the decimation factor: epochs close every factor-th
	// Sample call, so post-decimation epochs widen at the source instead
	// of being merged after the fact.
	factor int
	fires  int

	start    uint64
	prevSnap metrics.Snapshot
	prevSc   Scalars
	tl       *Timeline
}

// NewSampler builds a sampler; a zero interval returns nil (disabled).
func NewSampler(cfg Config) *Sampler {
	if cfg.Interval == 0 {
		return nil
	}
	return &Sampler{cfg: cfg, factor: 1, tl: New(cfg.Interval)}
}

// Sample is the engine observer callback, invoked with each
// epoch-boundary cycle. After decimation only every factor-th boundary
// closes an epoch — intermediate boundaries just count, so widened
// epochs accumulate at the source with no snapshot cost.
func (s *Sampler) Sample(now uint64) {
	if s == nil {
		return
	}
	s.fires++
	if s.fires < s.factor {
		return
	}
	s.fires = 0
	s.close(now)
}

// Finalize closes the trailing partial epoch at the run's final cycle,
// capturing everything since the last boundary (including drain-phase
// activity, which happens outside the engine's stepping). Call exactly
// once, before end-of-run absolute counter exports overwrite the
// registry. Safe on a nil sampler.
func (s *Sampler) Finalize(now uint64) {
	if s == nil || now <= s.start {
		return
	}
	s.fires = 0
	s.close(now)
}

// close seals the window [s.start, now) into an epoch.
func (s *Sampler) close(now uint64) {
	if now <= s.start {
		return
	}
	snap := s.cfg.Registry.Snapshot()
	var sc Scalars
	if s.cfg.Probe != nil {
		sc = s.cfg.Probe(now)
	}
	d := snap.Sub(s.prevSnap)
	ep := Epoch{
		Start:        s.start,
		End:          now,
		Instructions: sc.Instructions - s.prevSc.Instructions,
		StoreWrites:  sc.StoreWrites - s.prevSc.StoreWrites,
		Retries:      d.Counters[fault.MetricRetries],
		GapMoves:     d.Counters[remap.MetricGapMoves],
		SpareRemaps:  d.Counters[remap.MetricSpareRemaps],
		ReadNJ:       sc.ReadNJ - s.prevSc.ReadNJ,
		WriteNJ:      sc.WriteNJ - s.prevSc.WriteNJ,
		ReadQueue:    append([]int(nil), sc.ReadQueue...),
		WriteQueue:   append([]int(nil), sc.WriteQueue...),
	}
	ep.IPC = float64(ep.Instructions) / float64(now-s.start)
	for name, v := range d.Counters {
		if v != 0 {
			if ep.Counters == nil {
				ep.Counters = make(map[string]uint64)
			}
			ep.Counters[name] = v
		}
	}
	for name, h := range d.Histograms {
		if h.Count == 0 {
			continue
		}
		if ep.Quantiles == nil {
			ep.Quantiles = make(map[string]HistStat)
		}
		ep.Quantiles[name] = HistStat{Count: h.Count, P50: h.P50, P99: h.P99}
	}
	s.prevSnap, s.prevSc, s.start = snap, sc, now
	if s.cfg.OnEpoch != nil {
		s.cfg.OnEpoch(cloneEpoch(ep))
	}
	if s.tl.Append(ep) {
		s.factor *= 2
		s.fires = 0
	}
}

// Timeline freezes the accumulated series into its serializable form
// (nil on a nil sampler).
func (s *Sampler) Timeline() *Timeline {
	if s == nil {
		return nil
	}
	return s.tl.Clone()
}
