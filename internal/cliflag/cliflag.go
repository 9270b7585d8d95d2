// Package cliflag validates and lowers the numeric flags the ladder
// commands share, so each knob is checked in one place. A bad sampling
// rate or fault knob should fail fast with a clear message, not surface
// minutes later from deep inside the simulator (or, worse, silently
// disable the feature it was meant to tune).
package cliflag

import (
	"fmt"
	"time"
)

// Trace rejects out-of-range tracing flags.
func Trace(sample, slowest int) error {
	switch {
	case sample < 1:
		return fmt.Errorf("-trace-sample must be >= 1 (record one in every N transactions), got %d", sample)
	case slowest < 0:
		return fmt.Errorf("-trace-slowest must be >= 0 (0 disables the digest), got %d", slowest)
	}
	return nil
}

// Faults rejects out-of-range fault-injection flags. Zero is a
// meaningful value for -retry-max and -spare-rows — it disables the
// feature outright rather than falling back to the default (see Count)
// — so only negatives are rejected there.
func Faults(rate float64, retryMax, spareRows int) error {
	switch {
	case rate < 0 || rate >= 1:
		return fmt.Errorf("-fault-rate must be in [0, 1) (0 disables injection), got %g", rate)
	case retryMax < 0:
		return fmt.Errorf("-retry-max must be >= 0 (0 disables reissues), got %d", retryMax)
	case spareRows < 0:
		return fmt.Errorf("-spare-rows must be >= 0 (0 disables spare remapping), got %d", spareRows)
	}
	return nil
}

// RemapPenalty rejects a negative -remap-penalty; 0 makes remapped-row
// indirection free (see Ns).
func RemapPenalty(ns float64) error {
	if ns < 0 {
		return fmt.Errorf("-remap-penalty must be >= 0 ns (0 makes remapped-row indirection free), got %g", ns)
	}
	return nil
}

// Timeline rejects a -timeline-out with no sampling cadence: without
// -timeline-interval the run records no epochs and the export would
// silently write an empty document.
func Timeline(interval uint64, out string) error {
	if out != "" && interval == 0 {
		return fmt.Errorf("-timeline-out requires -timeline-interval > 0 (no epochs are recorded otherwise)")
	}
	return nil
}

// Jobs rejects a negative worker count.
func Jobs(n int) error {
	if n < 0 {
		return fmt.Errorf("-jobs must be >= 0 (0 = one worker per CPU), got %d", n)
	}
	return nil
}

// Serve rejects out-of-range service-mode knobs (see docs/SERVICE.md
// for their semantics). The timeouts take 0 to disable; negatives would
// silently behave like an already-expired deadline.
func Serve(queueDepth, cacheSize int, jobTimeout, stallTimeout time.Duration) error {
	switch {
	case queueDepth < 1:
		return fmt.Errorf("-queue-depth must be >= 1, got %d", queueDepth)
	case cacheSize < 1:
		return fmt.Errorf("-cache-size must be >= 1, got %d", cacheSize)
	case jobTimeout < 0:
		return fmt.Errorf("-job-timeout must be >= 0 (0 disables the deadline), got %v", jobTimeout)
	case stallTimeout < 0:
		return fmt.Errorf("-stall-timeout must be >= 0 (0 disables the watchdog), got %v", stallTimeout)
	}
	return nil
}

// Count maps the CLI convention (flag value is the literal setting;
// 0 disables) onto sim.Config's backward-compatible convention (0 means
// default, negative means disabled).
func Count(v int) int {
	if v == 0 {
		return -1
	}
	return v
}

// Ns is Count for nanosecond-valued float flags.
func Ns(v float64) float64 {
	if v == 0 {
		return -1
	}
	return v
}
