// Package timeline records a simulation run as a time-resolved series:
// an epoch sampler, driven by the engine's observer hook every N
// simulated cycles, diffs the run's metrics registry against the
// previous epoch and keeps a compact per-epoch record (IPC, writes,
// retries, gap moves, spare remaps, queue depth, energy, selected
// histogram quantiles). Memory stays bounded: when the retained series
// reaches its capacity, adjacent epochs merge pairwise and the
// effective epoch width doubles, so arbitrarily long runs keep a
// constant-size trajectory whose per-epoch deltas still sum exactly to
// the end-of-run aggregates.
//
// Sampling is observer-only by construction: the sampler never mutates
// simulation state, and the engine hook it rides fires at epoch
// boundaries without adding a processed cycle, so a run with the
// timeline enabled is identical to the same run without it, gauges
// included (pinned by TestTimelineObserverNeutral in internal/sim). See
// docs/TIMELINE.md.
package timeline

import "fmt"

// Schema versions the timeline JSON layout (the "timeline" section of
// run and grid reports, and the -timeline-out JSON export). Consumers
// should reject documents whose schema string they do not recognize.
const Schema = "ladder.timeline/v1"

// DefaultCapacity is the bound on retained epochs. It is even so
// capacity-triggered decimation always merges clean pairs.
const DefaultCapacity = 512

// Epoch is one closed sampling window [Start, End) in simulated cycles.
// All integer fields are deltas over the window; ReadQueue/WriteQueue
// are instantaneous per-channel depths observed at End.
type Epoch struct {
	Start uint64 `json:"start_cycle"`
	End   uint64 `json:"end_cycle"`

	// Instructions retired across all cores during the window; IPC is
	// Instructions over the window's cycle span.
	Instructions uint64  `json:"instructions"`
	IPC          float64 `json:"ipc"`
	// StoreWrites counts data writes that reached the ReRAM store.
	StoreWrites uint64 `json:"store_writes"`
	// Retries counts program-and-verify reissues (fault-injection runs).
	Retries uint64 `json:"retries"`
	// GapMoves and SpareRemaps count address-decoder activity.
	GapMoves    uint64 `json:"gap_moves"`
	SpareRemaps uint64 `json:"spare_remaps"`
	// ReadNJ/WriteNJ are the dynamic-energy deltas in nanojoules.
	ReadNJ  float64 `json:"read_nj"`
	WriteNJ float64 `json:"write_nj"`

	// ReadQueue/WriteQueue are per-channel queue depths at End. Dropped
	// (nil) on merged epochs: an instantaneous sample has no meaningful
	// sum. Omitted from CSV exports.
	ReadQueue  []int `json:"read_queue,omitempty"`
	WriteQueue []int `json:"write_queue,omitempty"`

	// Counters holds every registry counter that advanced during the
	// window, as deltas; unchanged counters are omitted entirely (the
	// compaction the bounded-memory story depends on).
	Counters map[string]uint64 `json:"counters,omitempty"`

	// Quantiles summarizes every registry histogram that received
	// observations during the window: the delta distribution's count and
	// interpolated P50/P99. Dropped on merged epochs (quantiles of two
	// windows do not combine exactly; the honest answer is absence).
	Quantiles map[string]HistStat `json:"quantiles,omitempty"`
}

// HistStat is one histogram's delta summary inside an epoch.
type HistStat struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// Timeline is the serializable per-epoch series: the "timeline" section
// of run reports. Interval is the configured sampling period in cycles;
// EffectiveInterval is Interval times the decimation factor (equal to
// Interval until capacity-triggered decimation widens epochs).
type Timeline struct {
	Schema            string  `json:"schema"`
	Interval          uint64  `json:"interval_cycles"`
	EffectiveInterval uint64  `json:"effective_interval_cycles"`
	Epochs            []Epoch `json:"epochs"`
}

// New returns an empty series sampled every interval cycles.
func New(interval uint64) *Timeline {
	return &Timeline{Schema: Schema, Interval: interval, EffectiveInterval: interval}
}

// Append adds a closed epoch to the series. Once the series reaches
// DefaultCapacity, adjacent epochs merge pairwise and EffectiveInterval
// doubles; Append reports whether that happened, so the sampler widens
// its epochs at the source to match.
func (t *Timeline) Append(e Epoch) bool {
	t.Epochs = append(t.Epochs, e)
	if len(t.Epochs) < DefaultCapacity {
		return false
	}
	t.Epochs = decimate(t.Epochs)
	t.EffectiveInterval *= 2
	return true
}

// Clone deep-copies a timeline.
func (t *Timeline) Clone() *Timeline {
	out := &Timeline{Schema: t.Schema, Interval: t.Interval, EffectiveInterval: t.EffectiveInterval}
	out.Epochs = make([]Epoch, len(t.Epochs))
	for i, e := range t.Epochs {
		out.Epochs[i] = cloneEpoch(e)
	}
	return out
}

func cloneEpoch(e Epoch) Epoch {
	e.ReadQueue = append([]int(nil), e.ReadQueue...)
	e.WriteQueue = append([]int(nil), e.WriteQueue...)
	if e.Counters != nil {
		c := make(map[string]uint64, len(e.Counters))
		for k, v := range e.Counters {
			c[k] = v
		}
		e.Counters = c
	}
	if e.Quantiles != nil {
		q := make(map[string]HistStat, len(e.Quantiles))
		for k, v := range e.Quantiles {
			q[k] = v
		}
		e.Quantiles = q
	}
	return e
}

// mergeEpochs folds two adjacent epochs into one covering both windows:
// deltas add, IPC is recomputed over the combined span, the
// instantaneous queue depths keep the later sample, and per-window
// quantile detail is dropped (it does not combine exactly).
func mergeEpochs(a, b Epoch) Epoch {
	out := Epoch{
		Start:        a.Start,
		End:          b.End,
		Instructions: a.Instructions + b.Instructions,
		StoreWrites:  a.StoreWrites + b.StoreWrites,
		Retries:      a.Retries + b.Retries,
		GapMoves:     a.GapMoves + b.GapMoves,
		SpareRemaps:  a.SpareRemaps + b.SpareRemaps,
		ReadNJ:       a.ReadNJ + b.ReadNJ,
		WriteNJ:      a.WriteNJ + b.WriteNJ,
		ReadQueue:    append([]int(nil), b.ReadQueue...),
		WriteQueue:   append([]int(nil), b.WriteQueue...),
	}
	if span := out.End - out.Start; span > 0 {
		out.IPC = float64(out.Instructions) / float64(span)
	}
	if len(a.Counters)+len(b.Counters) > 0 {
		out.Counters = make(map[string]uint64, len(a.Counters)+len(b.Counters))
		for k, v := range a.Counters {
			out.Counters[k] += v
		}
		for k, v := range b.Counters {
			out.Counters[k] += v
		}
	}
	return out
}

// decimate merges adjacent epoch pairs in place, halving the series
// (an odd trailing epoch is kept as-is).
func decimate(epochs []Epoch) []Epoch {
	out := epochs[:0]
	for i := 0; i+1 < len(epochs); i += 2 {
		out = append(out, mergeEpochs(epochs[i], epochs[i+1]))
	}
	if len(epochs)%2 == 1 {
		out = append(out, epochs[len(epochs)-1])
	}
	return out
}

// Merge combines two timelines of the same run shape (grid cells of one
// experiment) into a new timeline, leaving both inputs untouched.
// Epochs align by index after the finer timeline is decimated down to
// the coarser effective interval (the ratio must be a power of two —
// always true for capacity-decimated series of one configured
// interval); counter deltas add, IPC is recomputed, and the timelines
// may have different epoch counts (the tail copies from the longer
// one). Nil inputs pass the other through (cloned).
func Merge(a, b *Timeline) (*Timeline, error) {
	if a == nil && b == nil {
		return nil, nil
	}
	if a == nil {
		return b.Clone(), nil
	}
	if b == nil {
		return a.Clone(), nil
	}
	if a.Interval != b.Interval {
		return nil, fmt.Errorf("timeline: merging timelines with intervals %d vs %d", a.Interval, b.Interval)
	}
	if (a.EffectiveInterval == 0 || b.EffectiveInterval == 0) && a.EffectiveInterval != b.EffectiveInterval {
		return nil, fmt.Errorf("timeline: merging timelines with effective intervals %d vs %d",
			a.EffectiveInterval, b.EffectiveInterval)
	}
	a, b = a.Clone(), b.Clone()
	for a.EffectiveInterval < b.EffectiveInterval {
		a.Epochs = decimate(a.Epochs)
		a.EffectiveInterval *= 2
	}
	for b.EffectiveInterval < a.EffectiveInterval {
		b.Epochs = decimate(b.Epochs)
		b.EffectiveInterval *= 2
	}
	if a.EffectiveInterval != b.EffectiveInterval {
		return nil, fmt.Errorf("timeline: effective intervals %d and %d are not power-of-two multiples",
			a.EffectiveInterval, b.EffectiveInterval)
	}
	out := &Timeline{Schema: Schema, Interval: a.Interval, EffectiveInterval: a.EffectiveInterval}
	n := len(a.Epochs)
	if len(b.Epochs) > n {
		n = len(b.Epochs)
	}
	for i := 0; i < n; i++ {
		switch {
		case i >= len(a.Epochs):
			out.Epochs = append(out.Epochs, b.Epochs[i])
		case i >= len(b.Epochs):
			out.Epochs = append(out.Epochs, a.Epochs[i])
		default:
			out.Epochs = append(out.Epochs, overlayEpochs(a.Epochs[i], b.Epochs[i]))
		}
	}
	return out, nil
}

// overlayEpochs combines the i-th epochs of two merged timelines: the
// windows cover the same simulated span in independent runs, so deltas
// add and the span takes the union of the two windows.
func overlayEpochs(a, b Epoch) Epoch {
	out := mergeEpochs(a, b)
	out.Start = a.Start
	if b.Start < a.Start {
		out.Start = b.Start
	}
	out.End = a.End
	if b.End > a.End {
		out.End = b.End
	}
	out.ReadQueue, out.WriteQueue = nil, nil
	if span := out.End - out.Start; span > 0 {
		out.IPC = float64(out.Instructions) / float64(span)
	}
	return out
}
