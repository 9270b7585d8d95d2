// Package cliflag checks and lowers what the ladder commands' flags mean
// before they reach the simulator: the knobs sim.Config never sees (the
// tracing flags and timeline export), the lowering of flags that take 0
// as "off" onto Config's 0-means-default fields, and the rejection of a
// 0 typed for a flag whose field reads 0 as its default. Every range
// sim.Config holds is checked by the simulator itself (see
// sim.Options.Validate) and every range service.Config holds by the
// service (service.Config.Validate), so no range is checked twice.
package cliflag

import "fmt"

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

// NonZero rejects a 0 for the flag named name, whose Config field reads
// 0 as "use the default": the flag shows its default, so a typed 0 asks
// for a setting the field cannot hold. Negatives are left to the
// field's own range check.
func NonZero(name string, v int) error {
	if v == 0 {
		return fmt.Errorf("%s must be >= 1, got 0", name)
	}
	return nil
}

// Off lowers the flag named name from the CLI convention (the flag value
// is the literal setting; 0 turns the feature off) onto the one every
// layer below the CLI shares (0 means default, -1 means off). A negative
// flag value is an error, not a second spelling of 0.
func Off[T int | float64](name string, v T) (T, error) {
	switch {
	case v < 0:
		return 0, fmt.Errorf("%s must be >= 0 (0 turns it off), got %v", name, v)
	case v == 0:
		return -1, nil
	}
	return v, nil
}
