package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ladder"
	"ladder/internal/cliflag"
	"ladder/internal/fault"
	"ladder/internal/remap"
	"ladder/internal/service"
)

// These tables pin the checks laddersim makes of its flags. The ranges
// sim.Config holds (the fault rate's among them) are checked by the
// simulator's Options.Validate, as laddersim calls it on the lowered
// flags; their full tables are in internal/sim.

func TestValidateFlags(t *testing.T) {
	type in struct {
		sample, slowest int
		rate            float64
		retry, spares   int
		penalty         float64
	}
	def := in{sample: 1, slowest: 0, rate: 0, retry: 3, spares: 32, penalty: 2}
	cases := []struct {
		name    string
		in      in
		wantErr string // empty = valid
	}{
		{"defaults", def, ""},
		{"typical injection", in{1, 5, 0.01, 3, 32, 2}, ""},
		{"rate just below one", in{1, 0, 0.999, 1, 1, 2}, ""},
		// Zero is an explicit "off", not an unset default: each of these
		// must validate so the lowering in cliflag.Off can
		// carry the distinction into the simulator config.
		{"zero retries disables reissues", in{1, 0, 0.01, 0, 32, 2}, ""},
		{"zero spares disables remapping", in{1, 0, 0.01, 3, 0, 2}, ""},
		{"zero penalty is free indirection", in{1, 0, 0.01, 3, 32, 0}, ""},
		{"zero sample", in{0, 0, 0, 3, 32, 2}, "-trace-sample"},
		{"negative sample", in{-4, 0, 0, 3, 32, 2}, "-trace-sample"},
		{"negative slowest", in{1, -1, 0, 3, 32, 2}, "-trace-slowest"},
		// The simulator names the Config field the flag sets.
		{"rate one", in{1, 0, 1, 3, 32, 2}, "FaultRate"},
		{"rate negative", in{1, 0, -0.5, 3, 32, 2}, "FaultRate"},
		// A negative count would otherwise lower to Config's -1 "off"
		// and alias an explicit 0.
		{"negative retries", in{1, 0, 0.01, -1, 32, 2}, "-retry-max"},
		{"negative spares", in{1, 0, 0.01, 3, -1, 2}, "-spare-rows"},
		{"negative penalty", in{1, 0, 0.01, 3, 32, -2}, "-remap-penalty"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			retries, errRetry := cliflag.Off("-retry-max", c.in.retry)
			spares, errSpares := cliflag.Off("-spare-rows", c.in.spares)
			penalty, errPenalty := cliflag.Off("-remap-penalty", c.in.penalty)
			opts := ladder.Options{Base: ladder.Config{FaultRate: c.in.rate, RetryMax: retries, SpareRows: spares, RemapPenaltyNs: penalty}}
			err := errors.Join(cliflag.Trace(c.in.sample, c.in.slowest), errRetry, errSpares, errPenalty, opts.Validate())
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected an error mentioning %q", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not name the offending flag %q", err, c.wantErr)
			}
		})
	}
}

// TestFlagSentinelMapping pins the translation between the CLI
// convention (literal value, 0 = off) and the one every layer below the
// CLI shares (0 = default, -1 = off): an explicit flag zero must reach
// the simulator, and the fault and remap configs it passes the value
// to, as "disabled", never as "use the default".
func TestFlagSentinelMapping(t *testing.T) {
	retries, err := cliflag.Off("-retry-max", 0)
	if retries != -1 || err != nil {
		t.Errorf("cliflag.Off(0) = %d, %v, want -1 (disabled)", retries, err)
	}
	in, err := fault.NewInjector(fault.Config{RetryMax: retries})
	if err != nil {
		t.Fatal(err)
	}
	if in.RetryMax() != 0 {
		t.Errorf("-retry-max 0 reaches the injector as a cap of %d, want 0", in.RetryMax())
	}
	if got, err := cliflag.Off("-retry-max", 3); got != 3 || err != nil {
		t.Errorf("cliflag.Off(3) = %d, %v, want 3", got, err)
	}
	spares, err := cliflag.Off("-spare-rows", 0)
	if spares != -1 || err != nil {
		t.Errorf("cliflag.Off(0) = %d, %v, want -1 (disabled)", spares, err)
	}
	penalty, err := cliflag.Off("-remap-penalty", 0.0)
	if penalty != -1 || err != nil {
		t.Errorf("cliflag.Off(0.0) = %v, %v, want -1 (free)", penalty, err)
	}
	if got, err := cliflag.Off("-remap-penalty", 2.5); got != 2.5 || err != nil {
		t.Errorf("cliflag.Off(2.5) = %v, %v, want 2.5", got, err)
	}
	geom := ladder.DefaultGeometry()
	dec, err := remap.NewDecoder(remap.Config{Geom: geom, TicksPerNs: 4, SpareRows: spares})
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.RemapSpare(0, 1, 0); err == nil {
		t.Fatal("-spare-rows 0 reaches the decoder with a spare pool, want none: a spare remap succeeded")
	}
	dec, err = remap.NewDecoder(remap.Config{Geom: geom, TicksPerNs: 4, SpareRows: 1, PenaltyNs: penalty})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := geom.Decode(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.RemapSpare(0, geom.GlobalRow(loc), 0); err != nil {
		t.Fatal(err)
	}
	if p := dec.PenaltyTicks(loc); p != 0 {
		t.Errorf("-remap-penalty 0 charges %d ticks per remapped access, want 0 (free)", p)
	}
}

func TestValidateTimelineFlags(t *testing.T) {
	if err := cliflag.Timeline(0, ""); err != nil {
		t.Errorf("both off: unexpected error %v", err)
	}
	if err := cliflag.Timeline(10_000, "tl.csv"); err != nil {
		t.Errorf("interval with output: unexpected error %v", err)
	}
	if err := cliflag.Timeline(10_000, ""); err != nil {
		t.Errorf("interval without output: unexpected error %v", err)
	}
	if err := cliflag.Timeline(0, "tl.json"); err == nil || !strings.Contains(err.Error(), "-timeline-interval") {
		t.Errorf("output without interval: error %v does not name -timeline-interval", err)
	}
}

func TestValidateServeFlags(t *testing.T) {
	cases := []struct {
		name                        string
		jobs, queueDepth, cacheSize int
		jobTimeout, stallTimeout    time.Duration
		wantErr                     string // empty = valid
	}{
		{"defaults", 0, 16, 64, 0, 0, ""},
		{"explicit jobs", 8, 1, 1, 0, 0, ""},
		{"timeouts on", 0, 16, 64, time.Minute, 10 * time.Second, ""},
		{"negative jobs", -1, 16, 64, 0, 0, "Jobs"},
		{"zero queue", 0, 0, 64, 0, 0, "-queue-depth"},
		// The service names the Config field the flag sets.
		{"negative queue", 0, -2, 64, 0, 0, "QueueDepth"},
		{"zero cache", 0, 16, 0, 0, 0, "-cache-size"},
		{"negative job timeout", 0, 16, 64, -time.Second, 0, "JobTimeout"},
		{"negative stall timeout", 0, 16, 64, 0, -time.Second, "StallTimeout"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// laddersim checks its service flags as the service.Config
			// they set, in every mode; a typed 0 for a count whose field
			// reads 0 as its default is the only check of its own.
			svc := service.Config{QueueDepth: c.queueDepth, CacheSize: c.cacheSize, Jobs: c.jobs,
				JobTimeout: c.jobTimeout, StallTimeout: c.stallTimeout}
			err := errors.Join(cliflag.NonZero("-queue-depth", c.queueDepth), cliflag.NonZero("-cache-size", c.cacheSize), svc.Validate())
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %v does not name the offending flag %q", err, c.wantErr)
			}
		})
	}
}

// TestCheckModeFlags: a flag only one mode honours is an error in the
// others, not silently ignored.
func TestCheckModeFlags(t *testing.T) {
	cases := []struct {
		name    string
		set     []string
		m       mode
		wantErr string // empty = valid
	}{
		{"run with run flags", []string{"workload", "scheme", "metrics"}, modeRun, ""},
		{"exp with exp flags", []string{"gap-periods", "spare-grid", "instr"}, modeExp, ""},
		{"exp with workload", []string{"instr", "workload"}, modeExp, "-workload"},
		{"run with gap periods", []string{"workload", "gap-periods"}, modeRun, "-gap-periods"},
		{"run with spare grid", []string{"spare-grid"}, modeRun, "-spare-grid"},
		{"serve with spare grid", []string{"serve", "spare-grid"}, modeServe, "-spare-grid"},
		{"serve with service flags", []string{"serve", "http", "jobs", "log-format", "queue-depth", "cache-size",
			"max-instr", "state-dir", "job-timeout", "stall-timeout"}, modeServe, ""},
		{"serve with fault rate", []string{"serve", "fault-rate"}, modeServe, "-fault-rate"},
		{"serve with wear", []string{"serve", "wear"}, modeServe, "-wear"},
		{"serve with retry max", []string{"serve", "retry-max"}, modeServe, "-retry-max"},
		{"serve with timeline interval", []string{"serve", "timeline-interval"}, modeServe, "-timeline-interval"},
		{"serve with instr", []string{"serve", "instr"}, modeServe, "-instr"},
		{"serve with exp", []string{"serve", "exp"}, modeServe, "-exp"},
		{"run with queue depth", []string{"workload", "queue-depth"}, modeRun, "-queue-depth"},
		{"run with state dir", []string{"state-dir"}, modeRun, "-state-dir"},
		{"exp with cache size", []string{"cache-size"}, modeExp, "-cache-size"},
		{"exp with max instr", []string{"max-instr"}, modeExp, "-max-instr"},
		{"exp with job timeout", []string{"job-timeout"}, modeExp, "-job-timeout"},
		{"exp with stall timeout", []string{"stall-timeout"}, modeExp, "-stall-timeout"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := checkMode(c.set, c.m)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %v does not name the offending flag %q", err, c.wantErr)
			}
		})
	}
}
