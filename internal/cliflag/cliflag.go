// Package cliflag checks and lowers what the ladder commands' flags mean
// before they reach the simulator: the knobs sim.Config never sees (the
// tracing flags, timeline export and -serve settings) and the lowering
// of flags that take 0 as "off" onto Config's 0-means-default fields.
// Every range Config holds is checked by the simulator itself (see
// sim.Options.Validate), so no range is checked twice.
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

// Timeline rejects a -timeline-out with no sampling cadence: without
// -timeline-interval the run records no epochs and the export would
// silently write an empty document.
func Timeline(interval uint64, out string) error {
	if out != "" && interval == 0 {
		return fmt.Errorf("-timeline-out requires -timeline-interval > 0 (no epochs are recorded otherwise)")
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

// Off lowers the flag named name from the CLI convention (the flag value
// is the literal setting; 0 turns the feature off) onto sim.Config's
// (0 means default, -1 means off). A negative flag value is an error,
// not a second spelling of 0.
func Off[T int | float64](name string, v T) (T, error) {
	switch {
	case v < 0:
		return 0, fmt.Errorf("%s must be >= 0 (0 turns it off), got %v", name, v)
	case v == 0:
		return -1, nil
	}
	return v, nil
}
