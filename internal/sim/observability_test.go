package sim

import (
	"math"
	"testing"

	"ladder/internal/tracing"
)

// TestGoldenWithTracing re-proves golden determinism with the span
// collector enabled: tracing observes the run, it must not perturb it.
// Any divergence from the pinned want string means a trace call site
// leaked state back into the simulation.
func TestGoldenWithTracing(t *testing.T) {
	g := goldenRuns[0]
	cfg := testConfig(t, g.workload, g.scheme)
	cfg.TraceSample = 3
	cfg.TraceSlowest = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenKey(res); got != g.want {
		t.Errorf("tracing perturbed the simulation\n got: %s\nwant: %s", got, g.want)
	}

	if res.Trace == nil {
		t.Fatal("TraceSample > 0 but Result.Trace is nil")
	}
	sum := res.Trace.Summary()
	if sum.SampleEvery != 3 {
		t.Errorf("summary sample_every = %d, want 3", sum.SampleEvery)
	}
	if sum.Sampled == 0 || sum.Completed == 0 {
		t.Fatalf("no spans recorded: %+v", sum)
	}
	if len(sum.Slowest) == 0 {
		t.Error("slowest-writes digest empty despite completed writes")
	}

	// At least one dispatched data write must carry a fully resolved
	// timing-table cell: LADDER-Hybrid knows WL, BL and C_lrs.
	resolved := false
	for _, s := range res.Trace.Recent(math.MaxInt) {
		if s.Enqueue > s.Dispatch || s.Dispatch > s.Complete {
			t.Fatalf("span %d has a non-monotone lifecycle: %+v", s.ID, s)
		}
		if s.Kind == tracing.KindDataWrite && s.WLBucket >= 0 && s.BLBucket >= 0 && s.ClrsBucket >= 0 && s.LatNs > 0 {
			resolved = true
		}
	}
	if !resolved {
		t.Error("no data-write span carries a resolved ⟨WL, BL, C_lrs⟩ cell")
	}

	// The run report embeds the accounting.
	rep := NewReport(res)
	if rep.Trace == nil || rep.Trace.Sampled != sum.Sampled {
		t.Errorf("report trace summary = %+v, want %+v", rep.Trace, sum)
	}
}

// TestTracingOffByDefault pins the zero-cost default: no collector, no
// trace section in the report.
func TestTracingOffByDefault(t *testing.T) {
	res, err := Run(testConfig(t, "astar", SchemeBaseline))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("Result.Trace non-nil without TraceSample")
	}
	if rep := NewReport(res); rep.Trace != nil {
		t.Error("report carries a trace section without tracing")
	}
}

// TestProgressDetail checks the periodic progress snapshot: wall clock
// and instruction rate always, frozen metrics and recent spans when
// ProgressDetail asks for them (the introspection server's feed).
func TestProgressDetail(t *testing.T) {
	cfg := testConfig(t, "lbm", SchemeHybrid)
	cfg.TraceSample = 1
	cfg.ProgressDetail = true
	cfg.ProgressEvery = 20_000
	var last ProgressInfo
	calls := 0
	cfg.Progress = func(p ProgressInfo) { calls++; last = p }
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("progress hook never fired")
	}
	if last.Wall <= 0 {
		t.Errorf("Wall = %v, want > 0", last.Wall)
	}
	if last.InstrRate <= 0 {
		t.Errorf("InstrRate = %v, want > 0", last.InstrRate)
	}
	if last.Metrics == nil {
		t.Fatal("ProgressDetail set but Metrics snapshot is nil")
	}
	if len(last.Metrics.Counters) == 0 {
		t.Error("frozen snapshot carries no counters")
	}
	if len(last.Spans) == 0 {
		t.Error("ProgressDetail set with tracing on but no recent spans")
	}
}

// TestGridProgress checks RunGrid's per-cell completion notices.
func TestGridProgress(t *testing.T) {
	var events []GridProgress
	opts := Options{
		Instr: 10_000, Seed: 7, Tables: smallTables(t),
		Workloads: []string{"astar"},
		// Serialized under the grid lock, so plain append is safe.
		Progress: func(p GridProgress) { events = append(events, p) },
	}
	if _, err := RunGrid(opts, []string{SchemeBaseline, SchemeEst}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d progress events, want 2", len(events))
	}
	seen := map[int]bool{}
	for _, e := range events {
		if e.Total != 2 {
			t.Errorf("Total = %d, want 2", e.Total)
		}
		if e.Workload != "astar" || e.Failed {
			t.Errorf("unexpected event %+v", e)
		}
		seen[e.Done] = true
	}
	if !seen[1] || !seen[2] {
		t.Errorf("Done values %v, want {1, 2}", seen)
	}
}

// TestProgressAgreesWithTimeline pins the progress view to the timeline:
// at every cycle both observe, the retired count ProgressInfo reports
// equals the timeline's cumulative instructions, and observing progress
// leaves the run's cycles untouched.
func TestProgressAgreesWithTimeline(t *testing.T) {
	cfg := testConfig(t, "astar", SchemeBaseline)
	off, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ProgressEvery = 10_000
	cfg.TimelineInterval = 10_000
	progress := map[uint64]uint64{}
	cfg.Progress = func(p ProgressInfo) {
		var n uint64
		for _, c := range p.Cores {
			n += c.Retired
		}
		progress[p.Cycle] = n
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ko, kn := goldenKey(off), goldenKey(res); ko != kn {
		t.Errorf("progress run diverged from the plain run\n off: %s\n  on: %s", ko, kn)
	}
	var cum uint64
	shared := 0
	for _, e := range res.Timeline.Epochs {
		cum += e.Instructions
		n, ok := progress[e.End]
		if !ok {
			continue
		}
		shared++
		if n != cum {
			t.Errorf("cycle %d: progress reports %d retired, timeline %d", e.End, n, cum)
		}
	}
	if shared < 2 {
		t.Fatalf("only %d shared progress/timeline boundaries", shared)
	}
}
