// Package fault implements deterministic write-fault injection: a
// seeded, reproducible model of transient RESET failures whose
// probability is a U-shaped function of the pulse's latency margin over
// the timing-table requirement (under-provisioning risks incomplete
// switching, over-provisioning risks over-RESET stress and disturb —
// see probability), and permanent wear-out faults driven by effective
// per-row write counts against a per-row endurance limit. The injector
// issues verdicts only; row relocation — the spare-row pools, the remap
// tables, and the indirection penalties failed rows pay afterward —
// is owned by the programmable address decoder in package remap.
//
// Determinism contract: the injector draws one pseudo-random number per
// transient check from a splitmix64 stream seeded by Config.Seed, in the
// order the (single-goroutine) simulation completes write pulses. Two
// runs with identical configuration and seed therefore produce identical
// verdicts, retries and remaps — byte-identical reports. A disabled
// injector is a nil *Injector; every consumer gates on that nil, so
// fault-free runs are cycle-identical to a build without this package.
package fault

import (
	"fmt"

	"ladder/internal/metrics"
)

// UseDefault is the sentinel distinguishing "unset, use the default"
// from an explicit zero: RetryMax = UseDefault selects DefaultRetryMax,
// while RetryMax = 0 genuinely disables program-and-verify reissues.
const UseDefault = -1

// Default knobs; see Config.
const (
	// DefaultRetryMax is the program-and-verify reissue cap per write.
	DefaultRetryMax = 3
	// DefaultWearLimit is the effective per-row write count at or past
	// which writes fail permanently until the row is remapped (stuck-at
	// faults at a ReRAM cell endurance of 1e8 cycles).
	DefaultWearLimit = 100_000_000
)

// Margin-response constants of the transient model (see probability):
// underSlope scales how fast an under-provisioned pulse degrades toward
// certain failure; overSlope scales how fast surplus pulse time raises
// the over-stress/disturb exposure above the base rate.
const (
	underSlope = 4.0
	overSlope  = 2.0
)

// Config parameterizes an Injector.
type Config struct {
	// Rate is the base transient-failure probability of a pulse with zero
	// latency margin (an exactly-provisioned RESET). Must be in [0, 1).
	Rate float64
	// Seed seeds the injector's private PRNG stream.
	Seed int64
	// RetryMax caps program-and-verify reissues per write. UseDefault
	// selects DefaultRetryMax; an explicit 0 disables reissues entirely
	// (every transient failure goes straight to the remap path).
	RetryMax int
}

// withDefaults resolves the UseDefault sentinel.
func (c Config) withDefaults() Config {
	if c.RetryMax == UseDefault {
		c.RetryMax = DefaultRetryMax
	}
	return c
}

// Validate reports whether the configuration is usable (after the
// UseDefault sentinel is resolved).
func (c Config) Validate() error {
	switch {
	case c.Rate < 0 || c.Rate >= 1:
		return fmt.Errorf("fault: rate %v out of [0, 1)", c.Rate)
	case c.RetryMax < 0:
		return fmt.Errorf("fault: retry cap %d must be non-negative", c.RetryMax)
	}
	return nil
}

// Verdict is the outcome of one write-pulse check.
type Verdict int

const (
	// OK: the RESET completed.
	OK Verdict = iota
	// Transient: the pulse failed to switch every cell; a reissue with
	// more latency margin may succeed.
	Transient
	// Permanent: the row has worn-out cells; no pulse completes until the
	// row is remapped to a spare.
	Permanent
)

// String returns the verdict label.
func (v Verdict) String() string {
	switch v {
	case OK:
		return "ok"
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	}
	return "unknown"
}

// Counter names: Instrument fetches them, StatsFrom reads them back.
const (
	MetricChecked   = "fault.checked"
	MetricTransient = "fault.transient"
	MetricPermanent = "fault.permanent"
	MetricRetries   = "fault.retries"
	MetricExhausted = "fault.exhausted"
)

// Stats is the injector's cumulative accounting, embedded in run results
// and the report's faults section.
type Stats struct {
	// Checked counts write pulses offered to the injector.
	Checked uint64 `json:"checked"`
	// Injected counts failed pulses (transient + permanent).
	Injected uint64 `json:"injected"`
	// Transient and Permanent split Injected by verdict.
	Transient uint64 `json:"transient"`
	Permanent uint64 `json:"permanent"`
	// Retries counts program-and-verify reissues.
	Retries uint64 `json:"retries"`
	// Exhausted counts writes whose transient retries hit the cap.
	Exhausted uint64 `json:"exhausted"`
}

// StatsFrom maps a snapshot of the injector's counters onto Stats.
func StatsFrom(s metrics.Snapshot) Stats {
	c := s.Counters
	return Stats{
		Checked:   c[MetricChecked],
		Injected:  c[MetricTransient] + c[MetricPermanent],
		Transient: c[MetricTransient],
		Permanent: c[MetricPermanent],
		Retries:   c[MetricRetries],
		Exhausted: c[MetricExhausted],
	}
}

// splitmixState is the splitmix64 PRNG (same recurrence the store uses
// for resident-data synthesis): tiny, seedable and fully deterministic.
type splitmixState struct{ x uint64 }

func (s *splitmixState) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (s *splitmixState) float() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// Injector is one run's fault model. It is single-goroutine like the
// simulation that drives it; a nil *Injector means fault injection is
// disabled and is safe to pass around (consumers nil-check).
type Injector struct {
	cfg Config
	rng splitmixState
	// Counters fetched by Instrument; nil (counting nothing) until then.
	checked, transient, permanent, retries, exhausted *metrics.Counter
}

// NewInjector builds an injector, applying defaults then validating.
func NewInjector(cfg Config) (*Injector, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		cfg: cfg,
		rng: splitmixState{x: uint64(cfg.Seed) ^ 0xfa017ab1e5},
	}, nil
}

// RetryMax returns the program-and-verify reissue cap.
func (in *Injector) RetryMax() int { return in.cfg.RetryMax }

// Instrument fetches (creating on first use) the injector's counters
// from reg. Call before the first CheckWrite; an injector never
// instrumented counts nothing. Safe on nil (registers nothing).
func (in *Injector) Instrument(reg *metrics.Registry) {
	if in == nil {
		return
	}
	in.checked = reg.Counter(MetricChecked)
	in.transient = reg.Counter(MetricTransient)
	in.permanent = reg.Counter(MetricPermanent)
	in.retries = reg.Counter(MetricRetries)
	in.exhausted = reg.Counter(MetricExhausted)
}

// probability maps a pulse's latency margin to its failure probability.
// margin = (programmed − required) / required. The response is U-shaped
// with its minimum — the base rate — at exact provisioning:
//
//   - A deficit (margin < 0) grows the probability linearly toward
//     certain failure (4× under-provisioning ⇒ ~certain): the
//     incomplete-switching regime variability-aware crossbar channel
//     models predict.
//   - A surplus (margin > 0) raises the probability linearly above the
//     base rate: cells that finish switching early in a long pulse sit
//     under full RESET stress for the pulse's remainder, and that
//     over-RESET/disturb exposure scales with the excess pulse time.
//
// The surplus arm is what the reliability experiment measures: a scheme
// whose content metadata is conservatively stale (LADDER-Est's 2-bit
// partial-counter bounds) programs surplus margin on most writes and
// pays over-stress retries that LADDER-Basic's exact counters — zero
// margin by construction — never do.
func (in *Injector) probability(latNs, needNs float64) float64 {
	if needNs <= 0 {
		return in.cfg.Rate
	}
	margin := (latNs - needNs) / needNs
	if margin < 0 {
		boost := underSlope * -margin
		if boost > 1 {
			boost = 1
		}
		return in.cfg.Rate + (1-in.cfg.Rate)*boost
	}
	p := in.cfg.Rate * (1 + overSlope*margin)
	if p > 1 {
		p = 1
	}
	return p
}

// CheckWrite judges one completed write pulse: latNs is the programmed
// RESET latency, needNs the timing-table requirement for the row's
// actual pre-write content, rowWrites the row's *effective* write count
// — the caller subtracts the decoder's remap baseline so wear on a
// fresh spare counts from zero. Exactly one PRNG draw is consumed per
// transient check, keeping the stream aligned across reruns.
func (in *Injector) CheckWrite(latNs, needNs float64, rowWrites uint64) Verdict {
	in.checked.Inc()
	if rowWrites >= DefaultWearLimit {
		in.permanent.Inc()
		return Permanent
	}
	if in.rng.float() < in.probability(latNs, needNs) {
		in.transient.Inc()
		return Transient
	}
	return OK
}

// NoteRetry records one program-and-verify reissue.
func (in *Injector) NoteRetry() { in.retries.Inc() }

// NoteExhausted records one write whose transient retries hit the cap.
func (in *Injector) NoteExhausted() { in.exhausted.Inc() }
