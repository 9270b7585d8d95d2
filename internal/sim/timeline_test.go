package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ladder/internal/core"
	"ladder/internal/fault"
	"ladder/internal/remap"
	"ladder/internal/timeline"
)

// TestTimelineDeltasSumToAggregates is the timeline's accounting proof:
// on a run exercising every headline source (fault injection for
// retries, wear leveling for gap moves), the per-epoch deltas sum
// exactly to the end-of-run aggregates, and so does every named counter
// the epochs carry.
func TestTimelineDeltasSumToAggregates(t *testing.T) {
	cfg := testConfig(t, "lbm", SchemeHybrid)
	cfg.TimelineInterval = 10_000
	cfg.WearLeveling = true
	cfg.FaultRate = 0.02
	cfg.FaultSeed = 7
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	if tl == nil {
		t.Fatal("timeline enabled but Result.Timeline is nil")
	}
	if len(tl.Epochs) < 2 {
		t.Fatalf("only %d epochs; the run should span several intervals", len(tl.Epochs))
	}

	var instr, writes, retries, gaps, remaps uint64
	var readNJ, writeNJ float64
	counters := map[string]uint64{}
	observed := map[string]uint64{}
	for _, e := range tl.Epochs {
		for name, q := range e.Quantiles {
			observed[name] += q.Count
		}
		instr += e.Instructions
		writes += e.StoreWrites
		retries += e.Retries
		gaps += e.GapMoves
		remaps += e.SpareRemaps
		readNJ += e.ReadNJ
		writeNJ += e.WriteNJ
		for name, d := range e.Counters {
			counters[name] += d
		}
	}
	if instr != res.InstructionsRetired {
		t.Errorf("epoch instructions sum to %d, run retired %d", instr, res.InstructionsRetired)
	}
	if writes != res.TotalStoreWrites {
		t.Errorf("epoch store writes sum to %d, store counted %d", writes, res.TotalStoreWrites)
	}
	if res.Faults == nil {
		t.Fatal("fault injection enabled but Result.Faults is nil")
	}
	if retries != res.Faults.Retries {
		t.Errorf("epoch retries sum to %d, injector counted %d", retries, res.Faults.Retries)
	}
	if res.Remap == nil {
		t.Fatal("decoder active but Result.Remap is nil")
	}
	if gaps != res.Remap.GapMoves || remaps != res.Remap.SpareRemaps {
		t.Errorf("epoch remap sums = %d gap / %d spare, decoder counted %d / %d",
			gaps, remaps, res.Remap.GapMoves, res.Remap.SpareRemaps)
	}
	// Energy accumulates float increments in probe order, and the epochs
	// sum in the same order, so even the float totals match exactly.
	if readNJ != res.ReadNJ || writeNJ != res.WriteNJ {
		t.Errorf("epoch energy sums = %g/%g nJ, meter read %g/%g", readNJ, writeNJ, res.ReadNJ, res.WriteNJ)
	}
	// Every counter and histogram the epochs name must sum to its
	// end-of-run registry value. The run's traffic, latency, FNW, fault,
	// remap and per-bank write counts live in the registry from the first
	// event, so they advance epoch by epoch; exportRunMetrics only sets
	// the sim.* and eviction scalars, after the sampler finalizes, so
	// those names never appear in epochs. The run stays under the
	// timeline capacity, so no epoch merge has dropped its quantile
	// counts.
	final := res.Metrics.Snapshot()
	for _, name := range []string{core.MetricDataWrites, fault.MetricChecked, fault.MetricRetries,
		remap.MetricGapMoves, remap.MetricLookups} {
		if counters[name] == 0 {
			t.Errorf("%s never advanced in an epoch", name)
		}
	}
	var bankWrites uint64
	for name, v := range final.Counters {
		live := strings.HasPrefix(name, "fault.") || strings.HasPrefix(name, "remap.") ||
			strings.HasPrefix(name, "reram.") && strings.HasSuffix(name, ".writes")
		if live && counters[name] != v {
			t.Errorf("counter %s: epoch deltas sum to %d, final registry has %d", name, counters[name], v)
		}
		if strings.HasPrefix(name, "reram.") {
			bankWrites += counters[name]
		}
	}
	if bankWrites != res.TotalStoreWrites {
		t.Errorf("epoch per-bank writes sum to %d, store counted %d", bankWrites, res.TotalStoreWrites)
	}
	if observed[core.MetricWriteServiceNs] == 0 {
		t.Errorf("%s never observed in an epoch", core.MetricWriteServiceNs)
	}
	for name, sum := range counters {
		if got := final.Counters[name]; got != sum {
			t.Errorf("counter %s: epoch deltas sum to %d, final registry has %d", name, sum, got)
		}
	}
	for name, n := range observed {
		if got := final.Histograms[name].Count; got != n {
			t.Errorf("histogram %s: epoch counts sum to %d, final registry has %d", name, n, got)
		}
	}
	if counters[core.MetricDataWrites] != res.Stats.DataWrites {
		t.Errorf("epoch data writes sum to %d, Result.Stats has %d", counters[core.MetricDataWrites], res.Stats.DataWrites)
	}
}

// TestTimelineObserverNeutral pins the observer contract: enabling the
// timeline or the progress callback must not perturb the run. Hooks never add a processed cycle, so an observed
// run's report, with its timeline section cleared, is byte-identical
// to the plain run's, occupancy gauges included.
func TestTimelineObserverNeutral(t *testing.T) {
	report := func(t *testing.T, cfg Config) []byte {
		t.Helper()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.TimelineInterval > 0 && (res.Timeline == nil || len(res.Timeline.Epochs) == 0) {
			t.Error("timeline-on run produced no epochs")
		}
		res.Timeline = nil
		b, err := json.Marshal(NewReport(res).StripVolatile())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	neutral := func(t *testing.T, base Config, periods ...uint64) {
		want := report(t, base)
		for _, p := range periods {
			on := base
			on.TimelineInterval = p
			on.Progress = func(ProgressInfo) {}
			on.ProgressEvery = p
			if got := report(t, on); !bytes.Equal(got, want) {
				t.Errorf("period %d: the observed run's report differs from the plain run's %s", p, byteDiff(got, want))
			}
		}
	}
	// A deliberately awkward interval: boundaries land mid-window, not on
	// any natural period of the run.
	t.Run("lbm/Hybrid", func(t *testing.T) {
		neutral(t, testConfig(t, "lbm", SchemeHybrid), 7_321)
	})
	// Wear leveling and fault injection, where the probe touches the
	// decoder and injector accounting too.
	t.Run("mcf/Est/faults", func(t *testing.T) {
		cfg := testConfig(t, "mcf", SchemeEst)
		cfg.WearLeveling = true
		cfg.FaultRate = 0.02
		cfg.FaultSeed = 7
		neutral(t, cfg, 7_321)
	})
	// Frequent gap moves on the default tables and geometry: a moved
	// writeback lifts the write queue over its watermark and the mode
	// flips on the controller's next tick, so a hook boundary processed
	// as a cycle of its own would move the flip and the gauge samples.
	for _, scheme := range []string{SchemeBasic, SchemeOracle} {
		t.Run("mix-7/"+scheme+"/vwl16", func(t *testing.T) {
			cfg := Config{Workload: "mix-7", Scheme: scheme, InstrPerCore: 20_000, Seed: 3000, WearLeveling: true, VWLPeriod: 16}
			neutral(t, cfg, 1, 3, 17)
		})
	}
}

// TestTimelineCapacityBoundsEpochs pins source decimation end-to-end:
// an interval far below the run's length forces repeated widening at
// the default capacity, the retained epoch count stays bounded, and the
// sums still reconcile.
func TestTimelineCapacityBoundsEpochs(t *testing.T) {
	cfg := testConfig(t, "astar", SchemeBaseline)
	cfg.TimelineInterval = 20
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	if tl == nil {
		t.Fatal("no timeline")
	}
	if len(tl.Epochs) > timeline.DefaultCapacity {
		t.Errorf("capacity %d retained %d epochs", timeline.DefaultCapacity, len(tl.Epochs))
	}
	if tl.EffectiveInterval <= tl.Interval {
		t.Errorf("effective interval %d never widened past %d over a %d-tick run",
			tl.EffectiveInterval, tl.Interval, res.Ticks)
	}
	var instr uint64
	for _, e := range tl.Epochs {
		instr += e.Instructions
	}
	if instr != res.InstructionsRetired {
		t.Errorf("decimated epochs sum to %d instructions, run retired %d", instr, res.InstructionsRetired)
	}
}

// TestTimelineOnEpochStreams pins the live hook: every closed epoch
// reaches Config.TimelineOnEpoch in order, matching the final series
// when no decimation occurred.
func TestTimelineOnEpochStreams(t *testing.T) {
	cfg := testConfig(t, "astar", SchemeBaseline)
	cfg.TimelineInterval = 10_000
	var streamed []timeline.Epoch
	cfg.TimelineOnEpoch = func(e timeline.Epoch) { streamed = append(streamed, e) }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) == 0 {
		t.Fatal("no epochs streamed")
	}
	if len(streamed) != len(res.Timeline.Epochs) {
		t.Fatalf("streamed %d epochs, final timeline has %d", len(streamed), len(res.Timeline.Epochs))
	}
	for i, e := range res.Timeline.Epochs {
		if streamed[i].Start != e.Start || streamed[i].End != e.End || streamed[i].Instructions != e.Instructions {
			t.Errorf("streamed epoch %d = [%d,%d) %d instr; final = [%d,%d) %d instr",
				i, streamed[i].Start, streamed[i].End, streamed[i].Instructions, e.Start, e.End, e.Instructions)
		}
	}
}

// TestGridTimelineMerge pins the grid-level union: cell timelines merge
// into the grid report, and the merged deltas sum to the cells' totals.
func TestGridTimelineMerge(t *testing.T) {
	grid, err := RunGrid(Options{
		Instr: 10_000, Seed: 7, Tables: smallTables(t),
		Workloads: []string{"astar", "lbm"},
		Base:      Config{TimelineInterval: 10_000},
	}, []string{SchemeBaseline})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := NewGridReport(grid)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Timeline == nil || len(gr.Timeline.Epochs) == 0 {
		t.Fatal("grid report has no merged timeline")
	}
	var want uint64
	for _, w := range grid.Workloads {
		for _, s := range grid.Schemes {
			want += grid.Results[w][s].InstructionsRetired
		}
	}
	var got uint64
	for _, e := range gr.Timeline.Epochs {
		got += e.Instructions
	}
	if got != want {
		t.Errorf("merged timeline sums to %d instructions, cells retired %d", got, want)
	}
}
