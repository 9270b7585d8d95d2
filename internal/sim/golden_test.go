package sim

import (
	"fmt"
	"strconv"
	"testing"
)

// goldenRuns pins the event-driven engine to the exact results of the
// original cycle-by-cycle tick loop: Ticks, per-core IPC (full float64
// precision) and every deterministic Stats counter, for fixed seeds.
// The values were captured from the pre-engine implementation; any
// divergence means a skipped cycle was not actually dead, which is a
// correctness bug in an actor's NextEventAt/Advance contract, not a
// tolerable drift.
var goldenRuns = []struct {
	workload, scheme string
	want             string
}{
	{"lbm", SchemeHybrid,
		"ticks=175675 ipc=0.49525381758151055 dr=378 dw=316 smb=0 mr=15 mw=0 sp=0 hit=286 miss=15 " +
			"wsvc=165397.25 rlat=61212 rt=378 cds=45329 cdn=316 flips=53 canc=29 units=2528 bits=56831"},
	{"mcf", SchemeEst,
		"ticks=116283 ipc=0.6662743051314226 dr=807 dw=275 smb=0 mr=70 mw=0 sp=0 hit=165 miss=70 " +
			"wsvc=140491 rlat=72773.5 rt=807 cds=-17696 cdn=275 flips=0 canc=0 units=2200 bits=20376"},
	{"astar", SchemeBaseline,
		"ticks=89126 ipc=0.9694462845971142 dr=189 dw=78 smb=0 mr=0 mw=0 sp=0 hit=0 miss=0 " +
			"wsvc=52786.5 rlat=11698 rt=189 cds=0 cdn=0 flips=0 canc=0 units=624 bits=5413"},
	{"mix-1", SchemeBasic,
		"ticks=340391 ipc=0.2504549932377152 ipc=0.2289438438908243 ipc=0.18492435053027056 ipc=0.23139131742646576 " +
			"dr=1601 dw=811 smb=811 mr=210 mw=0 sp=0 hit=607 miss=210 " +
			"wsvc=404610 rlat=778238.25 rt=1601 cds=0 cdn=811 flips=40 canc=31 units=6488 bits=101721"},
}

// goldenKey serializes the deterministic portion of a Result. Floats use
// strconv's shortest round-trippable form, so equality is bit-for-bit.
func goldenKey(r *Result) string {
	s := fmt.Sprintf("ticks=%d", r.Ticks)
	for _, ipc := range r.PerCoreIPC {
		s += " ipc=" + strconv.FormatFloat(ipc, 'g', -1, 64)
	}
	st := r.Stats
	s += fmt.Sprintf(" dr=%d dw=%d smb=%d mr=%d mw=%d sp=%d hit=%d miss=%d",
		st.DataReads, st.DataWrites, st.SMBReads, st.MetaReads, st.MetaWrites,
		st.SpillParks, st.MetaCacheHits, st.MetaCacheMisses)
	s += " wsvc=" + strconv.FormatFloat(st.WriteServiceNs, 'g', -1, 64)
	s += " rlat=" + strconv.FormatFloat(st.ReadLatencyNs, 'g', -1, 64)
	s += fmt.Sprintf(" rt=%d", st.ReadsTimed)
	s += " cds=" + strconv.FormatFloat(st.CounterDiffSum, 'g', -1, 64)
	s += fmt.Sprintf(" cdn=%d flips=%d canc=%d units=%d bits=%d",
		st.CounterDiffN, st.FNWFlips, st.FNWCanceled, st.FNWUnits, st.BitChanges)
	return s
}

// TestGoldenDeterminism is the engine refactor's equivalence proof in
// test form: for each pinned (workload, scheme) pair, the event-driven
// run reproduces the classic tick loop's results exactly.
func TestGoldenDeterminism(t *testing.T) {
	for _, g := range goldenRuns {
		g := g
		t.Run(g.workload+"/"+g.scheme, func(t *testing.T) {
			t.Parallel()
			res, err := Run(testConfig(t, g.workload, g.scheme))
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenKey(res); got != g.want {
				t.Errorf("run diverged from the pinned tick-loop result\n got: %s\nwant: %s", got, g.want)
			}
		})
	}
}

// goldenVWLRuns extends the golden pins to wear-leveling-enabled
// configurations: the decoder refactor moved the start-gap shift behind
// remap.Decoder.Resolve, and these strings — captured from the
// pre-decoder implementation — prove the translation is bit-for-bit
// unchanged, gap-move accounting included.
var goldenVWLRuns = []struct {
	workload, scheme string
	vwlPeriod        int
	want             string
}{
	{"lbm", SchemeHybrid, 0, // default period
		"ticks=185129 ipc=0.3939153213364234 dr=378 dw=316 smb=0 mr=15 mw=0 sp=0 hit=278 miss=15 " +
			"wsvc=175117.5 rlat=92975.5 rt=378 cds=45329 cdn=316 flips=53 canc=29 units=2528 bits=56831 gap=2"},
	{"mcf", SchemeEst, 64,
		"ticks=123179 ipc=0.6461965945439467 dr=807 dw=275 smb=0 mr=70 mw=0 sp=0 hit=153 miss=70 " +
			"wsvc=143939.25 rlat=75691.25 rt=807 cds=-17696 cdn=275 flips=0 canc=0 units=2200 bits=20376 gap=4"},
}

// TestGoldenVWLDeterminism pins a wear-leveling-enabled run bit-for-bit:
// the programmable decoder must reproduce the exact gap arithmetic,
// maintenance traffic and timing the sim-owned StartGap produced.
func TestGoldenVWLDeterminism(t *testing.T) {
	for _, g := range goldenVWLRuns {
		g := g
		t.Run(fmt.Sprintf("%s/%s/period%d", g.workload, g.scheme, g.vwlPeriod), func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(t, g.workload, g.scheme)
			cfg.WearLeveling = true
			cfg.VWLPeriod = g.vwlPeriod
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenKey(res) + fmt.Sprintf(" gap=%d", res.Remap.GapMoves); got != g.want {
				t.Errorf("VWL run diverged from the pre-decoder pinned result\n got: %s\nwant: %s", got, g.want)
			}
		})
	}
}

// TestGoldenRepeatable re-runs one golden configuration twice in-process
// and demands identical results — the determinism half of the claim
// (the engine's event ordering must not depend on map iteration, timer
// noise, or any other per-run accident).
func TestGoldenRepeatable(t *testing.T) {
	a, err := Run(testConfig(t, "mcf", SchemeEst))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(t, "mcf", SchemeEst))
	if err != nil {
		t.Fatal(err)
	}
	if ka, kb := goldenKey(a), goldenKey(b); ka != kb {
		t.Errorf("identical configs diverged:\nfirst:  %s\nsecond: %s", ka, kb)
	}
}
