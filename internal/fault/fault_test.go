package fault

import (
	"math"
	"testing"

	"ladder/internal/metrics"
)

func mustInjector(t *testing.T, cfg Config) *Injector {
	t.Helper()
	in, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// instrumented returns an injector counting into a fresh registry.
func instrumented(t *testing.T, cfg Config) (*Injector, *metrics.Registry) {
	t.Helper()
	in := mustInjector(t, cfg)
	reg := metrics.NewRegistry()
	in.Instrument(reg)
	return in, reg
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero value", Config{}, true},
		{"typical", Config{Rate: 0.01, Seed: 7, RetryMax: 3}, true},
		{"sentinel retries", Config{Rate: 0.01, RetryMax: UseDefault}, true},
		{"explicit zero retries", Config{Rate: 0.01, RetryMax: 0}, true},
		{"rate one", Config{Rate: 1}, false},
		{"rate negative", Config{Rate: -0.1}, false},
		{"retry below sentinel", Config{RetryMax: -2}, false},
	}
	for _, c := range cases {
		_, err := NewInjector(c.cfg)
		if (err == nil) != c.ok {
			t.Errorf("%s: NewInjector err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestDefaultsApplied pins the UseDefault sentinel semantics: only the
// sentinel selects the default; an explicit zero means "no reissues" and
// survives defaulting untouched.
func TestDefaultsApplied(t *testing.T) {
	if in := mustInjector(t, Config{Rate: 0.01, RetryMax: UseDefault}); in.RetryMax() != DefaultRetryMax {
		t.Errorf("RetryMax(UseDefault) = %d, want default %d", in.RetryMax(), DefaultRetryMax)
	}
	if in := mustInjector(t, Config{Rate: 0.01, RetryMax: 0}); in.RetryMax() != 0 {
		t.Errorf("RetryMax(0) = %d, want 0 (reissues disabled, not defaulted)", in.RetryMax())
	}
	if in := mustInjector(t, Config{Rate: 0.01, RetryMax: 7}); in.RetryMax() != 7 {
		t.Errorf("RetryMax(7) = %d, want 7", in.RetryMax())
	}
}

// TestSeededRateWithinTolerance checks that zero-margin injection hits
// the configured base rate: the heart of the model's calibration.
func TestSeededRateWithinTolerance(t *testing.T) {
	const (
		rate   = 0.02
		trials = 200_000
	)
	in, reg := instrumented(t, Config{Rate: rate, Seed: 42})
	faults := 0
	for i := 0; i < trials; i++ {
		// Zero margin: programmed latency equals the requirement.
		if in.CheckWrite(100, 100, 0) == Transient {
			faults++
		}
	}
	got := float64(faults) / trials
	// 5 sigma of a binomial at p=0.02, n=200k is ~0.0016.
	if tol := 0.002; math.Abs(got-rate) > tol {
		t.Errorf("observed rate %.5f outside %v ± %v", got, rate, tol)
	}
	st := StatsFrom(reg.Snapshot())
	if st.Checked != trials || st.Injected != uint64(faults) || st.Transient != uint64(faults) {
		t.Errorf("stats mismatch: %+v (faults %d)", st, faults)
	}
}

// TestMarginShapesProbability pins the U-shaped response: exact
// provisioning is the minimum (base rate), a deficit boosts the
// probability toward certain incomplete switching, and a surplus raises
// it too (over-RESET stress scaling with excess pulse time).
func TestMarginShapesProbability(t *testing.T) {
	in := mustInjector(t, Config{Rate: 0.05, Seed: 1})
	pZero := in.probability(100, 100)
	pOver := in.probability(200, 100)
	pFarOver := in.probability(400, 100)
	pUnder := in.probability(80, 100)
	pDeep := in.probability(25, 100)
	if pZero != 0.05 {
		t.Errorf("zero-margin probability %v, want base rate", pZero)
	}
	if !(pZero < pOver && pOver < pFarOver) {
		t.Errorf("surplus margin should raise the rate: zero=%v over=%v far=%v",
			pZero, pOver, pFarOver)
	}
	if !(pZero < pUnder && pUnder < pDeep) {
		t.Errorf("probabilities not monotone in deficit: zero=%v under=%v deep=%v",
			pZero, pUnder, pDeep)
	}
	if pDeep != 1 {
		t.Errorf("4x under-provisioned pulse should fail certainly, got %v", pDeep)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Verdict {
		in := mustInjector(t, Config{Rate: 0.3, Seed: 99})
		out := make([]Verdict, 1000)
		for i := range out {
			out[i] = in.CheckWrite(100, 95+float64(i%11), 0)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d diverged across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestWearPermanent pins the permanent-fault threshold on the effective
// write count the caller supplies (the decoder subtracts its remap
// baseline before calling, so a fresh spare counts from zero).
func TestWearPermanent(t *testing.T) {
	in, reg := instrumented(t, Config{Rate: 0.001, Seed: 3})
	if v := in.CheckWrite(100, 100, DefaultWearLimit-1); v != OK && v != Transient {
		t.Fatalf("pre-limit write got %v", v)
	}
	if v := in.CheckWrite(1e6, 100, DefaultWearLimit); v != Permanent {
		t.Fatalf("at-limit write got %v, want Permanent (margin must not matter)", v)
	}
	st := StatsFrom(reg.Snapshot())
	if st.Permanent != 1 || st.Injected != st.Transient+st.Permanent {
		t.Errorf("stats = %+v, want exactly 1 permanent fault", st)
	}
}

// TestNilInjectorSafe pins the disabled state: instrumenting a nil
// injector registers nothing, so fault-free runs carry no fault.* names.
func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	reg := metrics.NewRegistry()
	in.Instrument(reg)
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatalf("nil injector registered %v", snap.Counters)
	}
	if st := StatsFrom(snap); st != (Stats{}) {
		t.Fatalf("nil injector stats = %+v, want zero value", st)
	}
}

// TestCountsLiveInRegistry pins the single count: every verdict and
// note lands in its named counter, and an uninstrumented injector
// issues the same verdicts while counting nothing.
func TestCountsLiveInRegistry(t *testing.T) {
	cfg := Config{Rate: 0.3, Seed: 5}
	in, reg := instrumented(t, cfg)
	plain := mustInjector(t, cfg)
	var want Stats
	for i := 0; i < 1000; i++ {
		rowWrites := DefaultWearLimit - 10 + uint64(i%12)
		v := in.CheckWrite(100, 100, rowWrites)
		if pv := plain.CheckWrite(100, 100, rowWrites); pv != v {
			t.Fatalf("check %d: instrumented verdict %v, plain %v", i, v, pv)
		}
		want.Checked++
		switch v {
		case Transient:
			want.Transient++
			in.NoteRetry()
			want.Retries++
		case Permanent:
			want.Permanent++
			in.NoteExhausted()
			want.Exhausted++
		}
	}
	want.Injected = want.Transient + want.Permanent
	if got := StatsFrom(reg.Snapshot()); got != want {
		t.Fatalf("registry stats = %+v, want %+v", got, want)
	}
	if want.Transient == 0 || want.Permanent == 0 {
		t.Fatalf("test drew no mix of verdicts: %+v", want)
	}
	snap := reg.Snapshot()
	for _, name := range []string{MetricChecked, MetricTransient, MetricPermanent, MetricRetries, MetricExhausted} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %s not registered", name)
		}
	}
}
