package sim

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ladder/internal/circuit"
	"ladder/internal/reram"
	"ladder/internal/timing"
	"ladder/internal/trace"
)

var (
	tablesOnce sync.Once
	testTables *timing.TableSet
	tablesErr  error
)

// smallTables builds a 128×128 table set so sim tests avoid the full
// 512×512 generation; the memory geometry shrinks to match.
func smallTables(t *testing.T) *timing.TableSet {
	t.Helper()
	tablesOnce.Do(func() {
		p := circuit.DefaultParams()
		p.N = 128
		testTables, tablesErr = timing.NewTableSet(p)
	})
	if tablesErr != nil {
		t.Fatal(tablesErr)
	}
	return testTables
}

func smallGeometry() reram.Geometry {
	return reram.Geometry{
		Channels:         2,
		RanksPerChannel:  2,
		BanksPerRank:     8,
		MatGroupsPerBank: 64,
		MatRows:          128,
	}
}

func testConfig(t *testing.T, workload, scheme string) Config {
	return Config{
		Workload:     workload,
		Scheme:       scheme,
		InstrPerCore: 60_000,
		Seed:         42,
		Geom:         smallGeometry(),
		Tables:       smallTables(t),
	}
}

func TestRunRejectsUnknownInputs(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("missing workload should fail")
	}
	cfg := testConfig(t, "nonesuch", SchemeBaseline)
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown workload should fail")
	}
	cfg = testConfig(t, "astar", "nonesuch")
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown scheme should fail")
	}
}

// TestRunRejectsTooManyBanks checks that a geometry with more banks per
// channel than the controller's bank masks hold fails at build, with the
// controller's error.
func TestRunRejectsTooManyBanks(t *testing.T) {
	cfg := testConfig(t, "astar", SchemeBaseline)
	cfg.Geom.RanksPerChannel, cfg.Geom.BanksPerRank = 8, 16
	cfg.Geom.MatGroupsPerBank = 1
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "bank masks") {
		t.Fatalf("Run with 128 banks per channel: err = %v, want the controller's bank-mask error", err)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(testConfig(t, "astar", SchemeBaseline))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(t, "astar", SchemeBaseline))
	if err != nil {
		t.Fatal(err)
	}
	if a.Ticks != b.Ticks || a.PerCoreIPC[0] != b.PerCoreIPC[0] {
		t.Fatalf("non-deterministic: %v/%v vs %v/%v", a.Ticks, a.PerCoreIPC, b.Ticks, b.PerCoreIPC)
	}
}

func TestRunSingleWorkloadBasics(t *testing.T) {
	res, err := Run(testConfig(t, "lbm", SchemeBaseline))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCoreIPC) != 1 {
		t.Fatalf("cores = %d, want 1", len(res.PerCoreIPC))
	}
	if res.PerCoreIPC[0] <= 0 || res.PerCoreIPC[0] > 1 {
		t.Fatalf("IPC = %v out of (0,1]", res.PerCoreIPC[0])
	}
	if res.Stats.DataWrites == 0 || res.Stats.DataReads == 0 {
		t.Fatal("no memory traffic simulated")
	}
	if res.Stats.AvgWriteServiceNs() <= 0 {
		t.Fatal("write service time not recorded")
	}
	if res.ReadNJ <= 0 || res.WriteNJ <= 0 {
		t.Fatal("energy not metered")
	}
}

func TestRunMixUsesFourCores(t *testing.T) {
	res, err := Run(testConfig(t, "mix-1", SchemeBaseline))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCoreIPC) != 4 {
		t.Fatalf("cores = %d, want 4", len(res.PerCoreIPC))
	}
	for i, ipc := range res.PerCoreIPC {
		if ipc <= 0 {
			t.Fatalf("core %d IPC = %v", i, ipc)
		}
	}
}

// TestSchemeOrdering is the headline sanity check: on a write-heavy
// workload the content/location-aware schemes must order as the paper's
// Figure 12 — baseline slowest, Oracle fastest, LADDER close to Oracle.
func TestSchemeOrdering(t *testing.T) {
	service := map[string]float64{}
	for _, s := range []string{SchemeBaseline, SchemeSplitReset, SchemeEst, SchemeOracle} {
		res, err := Run(testConfig(t, "lbm", s))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		service[s] = res.Stats.AvgWriteServiceNs()
	}
	if service[SchemeOracle] >= service[SchemeBaseline] {
		t.Fatalf("oracle %v should beat baseline %v", service[SchemeOracle], service[SchemeBaseline])
	}
	if service[SchemeEst] >= service[SchemeBaseline] {
		t.Fatalf("est %v should beat baseline %v", service[SchemeEst], service[SchemeBaseline])
	}
	if service[SchemeSplitReset] >= service[SchemeBaseline] {
		t.Fatalf("split-reset %v should beat baseline %v", service[SchemeSplitReset], service[SchemeBaseline])
	}
	if service[SchemeOracle] > service[SchemeEst] {
		t.Fatalf("oracle %v should not lose to est %v", service[SchemeOracle], service[SchemeEst])
	}
}

func TestSpeedupOverBaseline(t *testing.T) {
	base, err := Run(testConfig(t, "lbm", SchemeBaseline))
	if err != nil {
		t.Fatal(err)
	}
	est, err := Run(testConfig(t, "lbm", SchemeEst))
	if err != nil {
		t.Fatal(err)
	}
	sp := est.WeightedSpeedup(base)
	if sp <= 1.0 {
		t.Fatalf("LADDER-Est speedup = %v, want > 1 on write-heavy lbm", sp)
	}
}

func TestVerifyRoundTripAllSchemes(t *testing.T) {
	for _, s := range SchemeNames() {
		cfg := testConfig(t, "astar", s)
		cfg.InstrPerCore = 30_000
		cfg.Verify = true
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}

func TestExtraTrafficOrdering(t *testing.T) {
	// Figure 14: Basic's SMB reads dominate; Est cuts reads; Hybrid cuts
	// writes further via shared low-precision lines.
	frac := map[string][2]float64{}
	for _, s := range []string{SchemeBasic, SchemeEst, SchemeHybrid} {
		cfg := testConfig(t, "mcf", s)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		frac[s] = [2]float64{res.Stats.ExtraReadFraction(), res.Stats.ExtraWriteFraction()}
	}
	if frac[SchemeBasic][0] <= frac[SchemeEst][0] {
		t.Fatalf("basic extra reads %v should exceed est %v", frac[SchemeBasic][0], frac[SchemeEst][0])
	}
	if frac[SchemeEst][1] > frac[SchemeBasic][1] {
		t.Fatalf("est extra writes %v should not exceed basic %v", frac[SchemeEst][1], frac[SchemeBasic][1])
	}
}

func TestShrinkRangeSlowsContentAwareWrites(t *testing.T) {
	// Compressing the content-induced latency spread leaves the baseline
	// untouched (the worst-content guardband is preserved) and makes the
	// content-aware scheme's writes slower on average. The small test
	// crossbar's content axis only spans 0..127, so use a sparse workload
	// without resident fill to keep counts inside the table domain.
	mk := func(scheme string) Config {
		cfg := testConfig(t, "libq", scheme)
		cfg.ResidentLevel = -1
		return cfg
	}
	base, err := Run(mk(SchemeBaseline))
	if err != nil {
		t.Fatal(err)
	}
	cfgBaseShrunk := mk(SchemeBaseline)
	cfgBaseShrunk.ShrinkRange = 2
	baseShrunk, err := Run(cfgBaseShrunk)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.AvgWriteServiceNs() != baseShrunk.Stats.AvgWriteServiceNs() {
		t.Fatalf("baseline service changed under shrink: %v vs %v",
			base.Stats.AvgWriteServiceNs(), baseShrunk.Stats.AvgWriteServiceNs())
	}
	full, err := Run(mk(SchemeOracle))
	if err != nil {
		t.Fatal(err)
	}
	cfgShrunk := mk(SchemeOracle)
	cfgShrunk.ShrinkRange = 2
	shrunk, err := Run(cfgShrunk)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Stats.AvgWriteServiceNs() <= full.Stats.AvgWriteServiceNs() {
		t.Fatalf("shrunk-range service %v should exceed full-range %v",
			shrunk.Stats.AvgWriteServiceNs(), full.Stats.AvgWriteServiceNs())
	}
	if shrunk.Stats.AvgWriteServiceNs() >= base.Stats.AvgWriteServiceNs() {
		t.Fatalf("shrunk-range service %v should stay below baseline %v",
			shrunk.Stats.AvgWriteServiceNs(), base.Stats.AvgWriteServiceNs())
	}
}

func TestCrashRecoveryConservativeThenReadapts(t *testing.T) {
	cfg := testConfig(t, "lbm", SchemeEst)
	cfg.InstrPerCore = 80_000
	cfg.CrashAtInstr = 40_000
	cfg.Verify = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PreCrashStats == nil || res.PostCrashStats == nil {
		t.Fatal("crash stats missing")
	}
	if res.PostCrashStats.DataWrites == 0 {
		t.Fatal("no writes after recovery")
	}
	// The conservative correction makes post-crash writes slower at first
	// but execution continues correctly (Verify passed) and service stays
	// bounded by the worst case.
	post := res.PostCrashStats.AvgWriteServiceNs()
	if post <= 0 {
		t.Fatal("post-crash service not recorded")
	}
	worst := res.PreCrashStats.AvgWriteServiceNs() // sanity anchor
	if worst <= 0 {
		t.Fatal("pre-crash service not recorded")
	}
}

// TestCrashSplitSumsToTotals pins the crash split as a snapshot diff:
// for every Stats field, the pre-crash and post-crash parts add up to
// the whole run. Latency sums are multiples of a quarter nanosecond and
// counter gaps are integers, so the float fields add up exactly too.
func TestCrashSplitSumsToTotals(t *testing.T) {
	cfg := testConfig(t, "lbm", SchemeEst)
	cfg.InstrPerCore = 80_000
	cfg.CrashAtInstr = 40_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PreCrashStats == nil || res.PostCrashStats == nil {
		t.Fatal("crash stats missing")
	}
	pre := reflect.ValueOf(*res.PreCrashStats)
	post := reflect.ValueOf(*res.PostCrashStats)
	total := reflect.ValueOf(res.Stats)
	for i := 0; i < total.NumField(); i++ {
		name := total.Type().Field(i).Name
		switch total.Field(i).Kind() {
		case reflect.Uint64:
			a, b, want := pre.Field(i).Uint(), post.Field(i).Uint(), total.Field(i).Uint()
			if a+b != want {
				t.Errorf("%s: pre %d + post %d != run total %d", name, a, b, want)
			}
		case reflect.Float64:
			a, b, want := pre.Field(i).Float(), post.Field(i).Float(), total.Field(i).Float()
			if a+b != want {
				t.Errorf("%s: pre %g + post %g != run total %g", name, a, b, want)
			}
		default:
			t.Fatalf("%s: unhandled field kind %s", name, total.Field(i).Kind())
		}
	}
}

func TestLineVWLDegradesMetadataLocality(t *testing.T) {
	// Section 6.4: line-granularity wear leveling scatters a page's
	// blocks across wordline groups, hurting LRS-metadata locality
	// relative to segment-based leveling.
	plain, err := Run(testConfig(t, "lbm", SchemeEst))
	if err != nil {
		t.Fatal(err)
	}
	cfgLine := testConfig(t, "lbm", SchemeEst)
	cfgLine.WearLeveling = true
	cfgLine.VWLMode = "line"
	cfgLine.Verify = true
	line, err := Run(cfgLine)
	if err != nil {
		t.Fatal(err)
	}
	if line.Stats.MetaReads <= plain.Stats.MetaReads {
		t.Fatalf("line-mode VWL should increase metadata reads: %d vs %d",
			line.Stats.MetaReads, plain.Stats.MetaReads)
	}
}

func TestVWLModeValidation(t *testing.T) {
	cfg := testConfig(t, "astar", SchemeBaseline)
	cfg.WearLeveling = true
	cfg.VWLMode = "bogus"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown VWL mode should fail")
	}
}

func TestWearLevelingRuns(t *testing.T) {
	cfg := testConfig(t, "lbm", SchemeHybrid)
	cfg.WearLeveling = true
	cfg.Verify = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Remap.GapMoves == 0 {
		t.Fatal("expected VWL gap moves on a write-heavy run")
	}
	// Wear leveling costs a little performance but must not change
	// functional behavior (Verify passed above).
	plain, err := Run(testConfig(t, "lbm", SchemeHybrid))
	if err != nil {
		t.Fatal(err)
	}
	// Short runs leave few writes, so the static WL re-scatter adds
	// noticeable variance; full-scale runs land near the paper's ~1%.
	ratio := res.AvgIPC() / plain.AvgIPC()
	if ratio < 0.6 || ratio > 1.25 {
		t.Fatalf("wear-leveled IPC ratio %v implausible", ratio)
	}
}

func TestCounterDiffRecordedForEstVariants(t *testing.T) {
	for _, s := range []string{SchemeEst, SchemeEstNoShift, SchemeBasic} {
		res, err := Run(testConfig(t, "astar", s))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if res.Stats.CounterDiffN == 0 {
			t.Fatalf("%s: no counter-accuracy samples", s)
		}
	}
}

func TestBasicCountersAccurate(t *testing.T) {
	// LADDER-Basic keeps exact counters, so its estimated-vs-accurate gap
	// must be ~zero.
	res, err := Run(testConfig(t, "astar", SchemeBasic))
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Stats.AvgCounterDiff(); d < -1 || d > 1 {
		t.Fatalf("basic counter diff = %v, want ≈0", d)
	}
}

func TestFigureSchemesSubsetOfSchemeNames(t *testing.T) {
	all := map[string]bool{}
	for _, s := range SchemeNames() {
		all[s] = true
	}
	for _, s := range FigureSchemes() {
		if !all[s] {
			t.Fatalf("figure scheme %s missing from SchemeNames", s)
		}
	}
}

func TestTraceReplayRun(t *testing.T) {
	// Record a short trace, then replay it through the simulator; replays
	// are deterministic and verify end-to-end.
	prof := trace.Profiles["astar"]
	prof.WorkingSetPages = 2000
	gen, err := trace.NewGenerator(prof, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "astar.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Record(f, gen, "astar", 3, 2000); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, "astar", SchemeEst)
	cfg.TraceFile = path
	cfg.InstrPerCore = 30_000
	cfg.Verify = true
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ticks != b.Ticks || a.PerCoreIPC[0] != b.PerCoreIPC[0] {
		t.Fatal("trace replay not deterministic")
	}
	if len(a.PerCoreIPC) != 1 {
		t.Fatalf("trace replay should use one core, got %d", len(a.PerCoreIPC))
	}
}

func TestTraceReplayRejectsOversizedTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f, "x", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(trace.Access{Line: 1 << 62}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, "astar", SchemeBaseline)
	cfg.TraceFile = path
	if _, err := Run(cfg); err == nil {
		t.Fatal("oversized trace should be rejected")
	}
}

// TestTouchedRowsCountsWrittenRows: TouchedRows counts wordline groups
// written at least once. LADDER-Hybrid's metadata initialization
// prefills every row of a low-precision group to read its content, and
// those rows must not count unless a write lands in them.
func TestTouchedRowsCountsWrittenRows(t *testing.T) {
	for _, w := range []string{"lbm", "mcf", "mix-3"} {
		sys := &System{ctx: context.Background()}
		err := sys.build(Config{Workload: w, Scheme: SchemeHybrid, InstrPerCore: 20_000, Seed: 3,
			Tables: smallTables(t), Verify: true})
		for _, phase := range []func() error{sys.warm, sys.execute, sys.drainRemaining} {
			if err == nil {
				err = phase()
			}
		}
		var res *Result
		if err == nil {
			res, err = sys.collect()
		}
		sys.release()
		if err != nil {
			t.Fatal(err)
		}
		written := map[uint64]bool{}
		for line := range sys.expected {
			loc, err := sys.cfg.Geom.Decode(line)
			if err != nil {
				t.Fatal(err)
			}
			written[sys.cfg.Geom.GlobalRow(loc)] = true
		}
		if res.TouchedRows != len(written) {
			t.Errorf("%s: TouchedRows = %d, want the %d rows the run wrote", w, res.TouchedRows, len(written))
		}
	}
}
