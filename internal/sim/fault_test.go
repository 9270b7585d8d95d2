package sim

import (
	"bytes"
	"strings"
	"testing"

	"ladder/internal/fault"
	"ladder/internal/remap"
)

func faultConfig(t *testing.T, workload, scheme string, rate float64) Config {
	cfg := testConfig(t, workload, scheme)
	cfg.FaultRate = rate
	cfg.FaultSeed = 7
	return cfg
}

// normalizedReport freezes a result into its report with the wall-clock
// fields zeroed — the only non-deterministic content a report carries.
func normalizedReport(res *Result) *Report {
	res.WallClock = 0
	res.Metrics.SetCounter("sim.wall_clock_us", 0)
	return NewReport(res)
}

// TestGoldenWithFaults pins the determinism guarantee of docs/FAULTS.md:
// a fixed fault seed makes two runs byte-identical, report and faults
// section included.
func TestGoldenWithFaults(t *testing.T) {
	render := func() []byte {
		res, err := Run(faultConfig(t, "lbm", SchemeEst, 0.02))
		if err != nil {
			t.Fatal(err)
		}
		if res.Faults == nil {
			t.Fatal("faults accounting missing on an injection run")
		}
		if res.Faults.Injected == 0 || res.Faults.Retries == 0 {
			t.Fatalf("expected injected faults and retries, got %+v", res.Faults)
		}
		rep := normalizedReport(res)
		if rep.Faults == nil || rep.Faults.Retries != res.Faults.Retries {
			t.Fatalf("report faults section mismatch: %+v vs %+v", rep.Faults, res.Faults)
		}
		if rep.Faults.RetryLatency.Count != res.Faults.Retries {
			t.Fatalf("retry-latency histogram count %d != retries %d",
				rep.Faults.RetryLatency.Count, res.Faults.Retries)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("same fault seed produced different reports")
	}
}

// TestFaultFreeRunIdenticalToBaseline pins the FaultRate=0 contract:
// the injection machinery must be invisible when disabled.
func TestFaultFreeRunIdenticalToBaseline(t *testing.T) {
	plain, err := Run(testConfig(t, "astar", SchemeEst))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, "astar", SchemeEst)
	cfg.FaultSeed = 99 // ignored without a rate
	cfg.RetryMax = 5
	off, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if off.Faults != nil {
		t.Fatal("faults accounting present on a fault-free run")
	}
	if plain.Ticks != off.Ticks || plain.Stats != off.Stats {
		t.Fatalf("disabled injection perturbed the run: %d vs %d ticks", plain.Ticks, off.Ticks)
	}
}

// TestEstRetriesExceedBasic is the reliability experiment's core claim:
// under the same fault rate, LADDER-Est's stale partial-counter margins
// make it fail program-and-verify more often than LADDER-Basic, whose
// exact counters always provision the true requirement (zero margin).
func TestEstRetriesExceedBasic(t *testing.T) {
	retriesPerKWrite := func(scheme string) float64 {
		res, err := Run(faultConfig(t, "lbm", scheme, 0.02))
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if res.Stats.DataWrites == 0 {
			t.Fatalf("%s: no data writes", scheme)
		}
		return 1000 * float64(res.Faults.Retries) / float64(res.Stats.DataWrites)
	}
	est := retriesPerKWrite(SchemeEst)
	basic := retriesPerKWrite(SchemeBasic)
	if est <= basic {
		t.Fatalf("Est retries/kwrite %v should exceed Basic %v (stale-margin effect)", est, basic)
	}
}

// TestSparePoolExhaustionFailsRun drives the degradation path to its
// documented end state: when a bank's spare rows run out, the run
// surfaces an error instead of silently mis-modeling a broken device.
func TestSparePoolExhaustionFailsRun(t *testing.T) {
	cfg := faultConfig(t, "lbm", SchemeEst, 0.9)
	cfg.SpareRows = 1
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("expected spare-pool exhaustion to fail the run")
	}
	if !strings.Contains(err.Error(), "spare-row pool exhausted") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestFaultMetricsExported checks the registry carries the fault
// counters a report or scrape consumer reads, each event counted once:
// Result.Faults is read from the same counters, every channel's retry
// histogram observes one pulse per counted retry, and no per-channel
// or derived duplicate is registered.
func TestFaultMetricsExported(t *testing.T) {
	res, err := Run(faultConfig(t, "lbm", SchemeEst, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Metrics.Snapshot()
	for _, name := range []string{fault.MetricChecked, fault.MetricTransient, fault.MetricRetries} {
		if snap.Counters[name] == 0 {
			t.Fatalf("counter %s missing or zero", name)
		}
	}
	for _, name := range []string{fault.MetricPermanent, fault.MetricExhausted, remap.MetricSpareRemaps} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %s not registered", name)
		}
	}
	if got := fault.StatsFrom(snap); res.Faults == nil || *res.Faults != got {
		t.Errorf("Result.Faults = %+v, registry says %+v", res.Faults, got)
	}
	var retryPulses uint64
	for name, h := range snap.Histograms {
		if strings.HasSuffix(name, ".retry_latency_ns") {
			retryPulses += h.Count
		}
	}
	if retryPulses != snap.Counters[fault.MetricRetries] {
		t.Errorf("retry_latency_ns counts sum to %d, %s is %d", retryPulses, fault.MetricRetries, snap.Counters[fault.MetricRetries])
	}
	for name := range snap.Counters {
		for _, dup := range []string{"fault.injected", "remap.spares_used",
			".write_faults", ".write_retries", ".row_remaps", ".retry_exhausted"} {
			if strings.HasSuffix(name, dup) {
				t.Errorf("duplicate counter %s registered", name)
			}
		}
	}
}
