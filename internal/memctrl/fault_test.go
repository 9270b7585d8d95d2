package memctrl

import (
	"strings"
	"testing"

	"ladder/internal/bits"
	"ladder/internal/core"
	"ladder/internal/fault"
	"ladder/internal/metrics"
	"ladder/internal/remap"
	"ladder/internal/reram"
)

// newFaultHarness wires an injector and an address decoder with the
// given per-bank spare pool, both counting into the harness's metrics
// registry, into a fresh controller harness, mirroring the sim package's
// build order (faults and decoder before instrumentation, so the retry
// histogram registers).
func newFaultHarness(t *testing.T, mk func(*core.Env) core.Scheme, cfg fault.Config, spareRows int) (*harness, *metrics.Registry) {
	t.Helper()
	h := newHarness(t, mk)
	inj, err := fault.NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := remap.NewDecoder(remap.Config{
		Geom:       h.env.Geom,
		TicksPerNs: TicksPerNs,
		SpareRows:  spareRows,
		PenaltyNs:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Instrument(h.env.Metrics)
	dec.Instrument(h.env.Metrics)
	h.ctrl.SetFaults(inj)
	h.ctrl.SetDecoder(dec)
	h.ctrl.Instrument(0)
	return h, h.env.Metrics
}

// retryLatencyCount sums the per-channel retry-latency histogram counts:
// one observation per reissued pulse, so it must equal fault.retries.
func retryLatencyCount(snap metrics.Snapshot) uint64 {
	var n uint64
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "memctrl.ch") && strings.HasSuffix(name, ".retry_latency_ns") {
			n += h.Count
		}
	}
	return n
}

func basicScheme(t *testing.T) func(*core.Env) core.Scheme {
	return func(env *core.Env) core.Scheme {
		s, err := core.NewBasicCache(env, core.DefaultMetaCacheConfig())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

// TestVerifyFailureReissuesAndPersists drives one write through the
// program-and-verify loop under a high fault rate: the failed pulses are
// metered, the reissues counted, and the data still lands.
func TestVerifyFailureReissuesAndPersists(t *testing.T) {
	h, reg := newFaultHarness(t, estScheme(t),
		fault.Config{Rate: 0.9, Seed: 1, RetryMax: fault.UseDefault}, remap.UseDefault)
	var data bits.Line
	for i := range data {
		data[i] = byte(i * 5)
	}
	if !h.ctrl.EnqueueWrite(0, data, h.now) {
		t.Fatal("enqueue failed")
	}
	h.runUntilIdle(t, 5_000_000)
	st := fault.StatsFrom(reg.Snapshot())
	if st.Retries == 0 {
		t.Fatalf("expected verify retries at rate 0.9, stats %+v", st)
	}
	// Each failed pulse is still charged on the energy meter.
	if h.meter.Writes <= 1 {
		t.Fatalf("meter writes = %d; failed pulses must be metered", h.meter.Writes)
	}
	got, err := h.ctrl.ReadLineLogical(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != data {
		t.Fatal("write lost through the retry path")
	}
	if n := retryLatencyCount(reg.Snapshot()); n != st.Retries {
		t.Fatalf("retry latency histogram counts sum to %d, %s is %d", n, fault.MetricRetries, st.Retries)
	}
}

// TestRetryEscalatesPulseLatency pins the escalation policy: a sparse
// write under LADDER-Basic programs a low content bucket, so consecutive
// reissues must climb the timing table toward worst case rather than
// re-fail at the same margin.
func TestRetryEscalatesPulseLatency(t *testing.T) {
	h, reg := newFaultHarness(t, basicScheme(t),
		fault.Config{Rate: 0.99, Seed: 2, RetryMax: fault.UseDefault}, remap.UseDefault)
	var sparse bits.Line
	sparse[0] = 1
	if !h.ctrl.EnqueueWrite(0, sparse, h.now) {
		t.Fatal("enqueue failed")
	}
	h.runUntilIdle(t, 5_000_000)
	st := fault.StatsFrom(reg.Snapshot())
	if st.Retries < 2 {
		t.Fatalf("expected at least two reissues at rate 0.99, stats %+v", st)
	}
	hist := reg.Snapshot().Histograms["memctrl.ch0.retry_latency_ns"]
	if hist.Count != st.Retries {
		t.Fatalf("retry histogram count %d != retries %d", hist.Count, st.Retries)
	}
	if hist.Max <= hist.Min {
		t.Fatalf("reissue latency should escalate across attempts: min %v max %v", hist.Min, hist.Max)
	}
}

// TestSparePoolExhaustionSurfacesError drives degradation to the end
// state: once a bank's single spare is consumed, the next unrecoverable
// row must surface through Controller.Err instead of looping forever.
func TestSparePoolExhaustionSurfacesError(t *testing.T) {
	h, reg := newFaultHarness(t, estScheme(t),
		fault.Config{Rate: 0.99, Seed: 3, RetryMax: 1}, 1)
	var data bits.Line
	data[0] = 0xff
	for i := 0; i < 64; i++ {
		for !h.ctrl.EnqueueWrite(uint64(i)*reram.BlocksPerRow, data, h.now) {
			h.ctrl.Tick(h.now)
			h.now++
		}
	}
	h.runUntilIdle(t, 50_000_000)
	if h.ctrl.Err() == nil {
		t.Fatalf("expected spare-pool exhaustion error, stats %+v", fault.StatsFrom(reg.Snapshot()))
	}
	if !strings.Contains(h.ctrl.Err().Error(), "spare-row pool exhausted") {
		t.Fatalf("unexpected error: %v", h.ctrl.Err())
	}
}
