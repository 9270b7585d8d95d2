package evaluation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ladder"
	"ladder/internal/core"
	"ladder/internal/reram"
	"ladder/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden fixtures under testdata/")

const studiesGolden = "testdata/studies.golden"

var (
	tablesOnce  sync.Once
	smallTabs   *ladder.TableSet
	smallTabErr error
)

// smallTables are timing tables for a 128×128 crossbar, generated once.
func smallTables(t *testing.T) *ladder.TableSet {
	t.Helper()
	tablesOnce.Do(func() {
		p := ladder.DefaultCrossbarParams()
		p.N = 128
		smallTabs, smallTabErr = ladder.NewTables(p)
	})
	if smallTabErr != nil {
		t.Fatal(smallTabErr)
	}
	return smallTabs
}

// smallGeometry is a 128-row memory of 32 banks.
func smallGeometry() reram.Geometry {
	return reram.Geometry{Channels: 2, RanksPerChannel: 2, BanksPerRank: 8, MatGroupsPerBank: 64, MatRows: 128}
}

// studyOptions is the studies' shared fixture: small tables and two
// workloads, one single-core and one four-core mix.
func studyOptions(t *testing.T) ladder.Options {
	return ladder.Options{Instr: 15_000, Seed: 1, Tables: smallTables(t), Workloads: []string{"lbm", "mix-3"}}
}

// config is the Config a study cell of opts runs before its edit.
func config(opts ladder.Options, workload, scheme string) ladder.Config {
	cfg := opts.Base
	cfg.Workload, cfg.Scheme = workload, scheme
	cfg.InstrPerCore, cfg.Seed, cfg.Tables = opts.Instr, opts.Seed, opts.Tables
	return cfg
}

// writeStudyRows renders rows one per line, values in key order and in
// strconv's shortest round-trippable form, so equality is bit-for-bit.
func writeStudyRows(b *bytes.Buffer, name string, rows []ladder.Row) {
	for _, r := range rows {
		keys := make([]string, 0, len(r.Values))
		for k := range r.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(b, "%s %s", name, r.Workload)
		for _, k := range keys {
			fmt.Fprintf(b, " %s=%s", k, strconv.FormatFloat(r.Values[k], 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
}

// studyCase is one of the eight studies on short axes, run under ctx
// and rendered as rows (the lifetime sweep renders its Rows). scheme is
// the one the golden records.
type studyCase struct {
	name, scheme string
	run          func(ctx context.Context, opts ladder.Options, scheme string) ([]ladder.Row, error)
}

// rowsOf runs a row study built for a scheme.
func rowsOf(build func(scheme string) study) func(context.Context, ladder.Options, string) ([]ladder.Row, error) {
	return func(ctx context.Context, opts ladder.Options, scheme string) ([]ladder.Row, error) {
		return build(scheme).rows(ctx, opts)
	}
}

// studies runs each study on short axes. lowrows always runs
// LADDER-Hybrid; the others run the given scheme (and, where they
// compare against one, the baseline).
var studies = []studyCase{
	{"RangeAblation", ladder.SchemeEst, rowsOf(func(s string) study { return ablation(s, 2) })},
	{"CrashRecoveryStudy", ladder.SchemeEst, rowsOf(crash)},
	{"VWLModeComparison", ladder.SchemeEst, rowsOf(vwlmode)},
	{"CacheSizeSweep", ladder.SchemeHybrid, rowsOf(func(s string) study { return cachesize(s, 16, 64) })},
	{"LowPrecisionSweep", ladder.SchemeHybrid, rowsOf(func(string) study { return lowrows(0, 128) })},
	{"ReliabilitySweep", ladder.SchemeHybrid, rowsOf(func(s string) study {
		return reliability([]string{ladder.SchemeBasic, s}, []float64{0.01})
	})},
	{"WearLevelingImpact", ladder.SchemeHybrid, rowsOf(wear)},
	{"LifetimeSweep", ladder.SchemeHybrid, func(ctx context.Context, o ladder.Options, s string) ([]ladder.Row, error) {
		st, err := lifetimeSweep(ctx, o, s, []int{16, 64}, []int{0, 16})
		if err != nil {
			return nil, err
		}
		return st.Rows(), nil
	}},
}

// studiesGoldenText runs all eight studies on short axes and renders
// every reported value.
func studiesGoldenText(t *testing.T, opts ladder.Options) []byte {
	t.Helper()
	ctx := context.Background()
	var b bytes.Buffer
	for _, s := range studies[:len(studies)-1] { // the lifetime sweep, last, is rendered in full below
		rows, err := s.run(ctx, opts, s.scheme)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		writeStudyRows(&b, s.name, rows)
	}
	life, err := lifetimeSweep(ctx, opts, ladder.SchemeHybrid, []int{16, 64}, []int{0, 16})
	if err != nil {
		t.Fatalf("LifetimeSweep: %v", err)
	}
	for _, c := range life.Cells {
		fmt.Fprintf(&b, "LifetimeSweep gap=%d spares=%d life=%s ipc=%s gap_moves=%d spare_remaps=%d\n",
			c.GapPeriod, c.SpareRows,
			strconv.FormatFloat(c.RelativeLifetime, 'g', -1, 64), strconv.FormatFloat(c.IPCRatio, 'g', -1, 64),
			c.GapMoves, c.SpareRemaps)
	}
	fmt.Fprintf(&b, "LifetimeSweep remap %+v\n", life.Remap)
	writeStudyRows(&b, "LifetimeSweep", life.Rows())
	return b.Bytes()
}

// TestGoldenStudies pins every value the eight studies report, on one
// worker and on four: the studies' cells run on sim.RunCells' pool, and
// the reduce over them must not depend on completion order.
func TestGoldenStudies(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		opts := studyOptions(t)
		opts.Jobs = jobs
		got := studiesGoldenText(t, opts)
		if *updateGolden {
			if err := os.WriteFile(filepath.FromSlash(studiesGolden), got, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(filepath.FromSlash(studiesGolden))
		if err != nil {
			t.Fatalf("reading %s (run with -update to create it): %v", studiesGolden, err)
		}
		if !bytes.Equal(got, want) {
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := range gl {
				if i >= len(wl) || gl[i] != wl[i] {
					t.Fatalf("jobs=%d: studies diverge from %s at line %d:\n got: %s\nwant: %s", jobs, studiesGolden, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("jobs=%d: studies output is shorter than %s", jobs, studiesGolden)
		}
	}
}

const panicSchemeName = "test-panic-on-build"

// TestStudiesCancelAndPanic: every study runs its cells on sim.RunCells,
// so a canceled context surfaces as an error with no rows, and a
// panicking scheme becomes a *sim.PanicError instead of crashing the
// process.
func TestStudiesCancelAndPanic(t *testing.T) {
	if _, err := core.SchemeName(panicSchemeName); err != nil {
		core.RegisterScheme(panicSchemeName, func(*core.Env, core.MetaCacheConfig) (core.Scheme, error) {
			panic("injected scheme bug")
		})
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range studies {
		t.Run(s.name, func(t *testing.T) {
			opts := studyOptions(t)
			opts.Workloads = []string{"lbm"}
			opts.Jobs = 2
			rows, err := s.run(canceled, opts, ladder.SchemeHybrid)
			if !errors.Is(err, context.Canceled) || rows != nil {
				t.Fatalf("canceled study: rows=%v err=%v, want no rows and context.Canceled", rows, err)
			}
			if s.name == "LowPrecisionSweep" {
				return // its scheme is fixed
			}
			rows, err = s.run(context.Background(), opts, panicSchemeName)
			var pe *sim.PanicError
			if !errors.As(err, &pe) || pe.Value != "injected scheme bug" || rows != nil {
				t.Fatalf("panicking study: rows=%v err=%v, want no rows and the injected *PanicError", rows, err)
			}
		})
	}
}

func TestLifetimeSweep(t *testing.T) {
	opts := ladder.Options{Instr: 15_000, Seed: 1, Tables: smallTables(t), Workloads: []string{"astar"}}
	study, err := lifetimeSweep(context.Background(), opts, ladder.SchemeHybrid, []int{16, 64}, []int{0, 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(study.Cells); got != 4 {
		t.Fatalf("cells = %d, want 4 (2 periods x 2 spare sizes)", got)
	}
	for _, c := range study.Cells {
		if c.RelativeLifetime <= 0 || c.IPCRatio <= 0 {
			t.Fatalf("unpopulated cell: %+v", c)
		}
	}
	if study.Remap.GapMoves == 0 {
		t.Fatal("sweep recorded no gap moves; decoder rotation never ran")
	}
	if study.Schema != LifetimeReportSchema {
		t.Fatalf("schema = %q", study.Schema)
	}
	var doc bytes.Buffer
	if err := study.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	var rep LifetimeStudy
	if err := json.Unmarshal(doc.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 || rep.Remap.GapMoves != study.Remap.GapMoves || !reflect.DeepEqual(&rep, study) {
		t.Fatalf("report does not mirror the study:\n%s", doc.String())
	}
	rows, series := study.Rows(), study.Series()
	if len(rows) != 2 || len(series) != 4 {
		t.Fatalf("rows = %d series = %d, want 2 and 4", len(rows), len(series))
	}
	for _, s := range series {
		if _, ok := rows[0].Values[s]; !ok {
			t.Fatalf("row missing series %q", s)
		}
	}
}

// TestLifetimeSweepRejectsBadAxes: a gap period below 1, a negative
// spare-pool size and a repeated entry fail the sweep before any cell
// runs. Period 0 used to run Config's default period under a "0" label,
// and a negative pool reached the lifetime model's spare factor.
func TestLifetimeSweepRejectsBadAxes(t *testing.T) {
	opts := ladder.Options{Instr: 5_000, Seed: 1, Tables: smallTables(t), Workloads: []string{"astar"}}
	cells := 0
	opts.Progress = func(ladder.GridProgress) { cells++ }
	for _, c := range []struct {
		periods, spares []int
		want            string
	}{
		{[]int{0}, nil, "gap period"},
		{[]int{-64}, nil, "gap period"},
		{[]int{64, 128, 64}, nil, "gap period"},
		{nil, []int{-1}, "spare-pool size"},
		{nil, []int{0, 16, 0}, "spare-pool size"},
	} {
		_, err := lifetimeSweep(context.Background(), opts, ladder.SchemeHybrid, c.periods, c.spares)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("periods %v spares %v: err = %v, want a rejection naming the %s", c.periods, c.spares, err, c.want)
		}
		s := &Session{Ctx: context.Background(), Opts: opts, GapPeriods: c.periods, SpareGrid: c.spares}
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("periods %v spares %v: Session.Validate = %v, want a rejection naming the %s", c.periods, c.spares, err, c.want)
		}
	}
	if cells != 0 {
		t.Errorf("%d cells ran before the rejections", cells)
	}
}

// TestLifetimeSweepUsesCellGeometry: the lifetime model counts start-gap
// segments over the geometry the cells ran on, so a small Base.Geom must
// reach it. The study's value is recomputed from solo runs of the same
// two cells and must differ from the default-geometry reading.
func TestLifetimeSweepUsesCellGeometry(t *testing.T) {
	opts := ladder.Options{Instr: 15_000, Seed: 1, Tables: smallTables(t), Workloads: []string{"astar"},
		Base: ladder.Config{Geom: smallGeometry()}}
	const period, spares = 16, 16
	study, err := lifetimeSweep(context.Background(), opts, ladder.SchemeHybrid, []int{period}, []int{spares})
	if err != nil {
		t.Fatal(err)
	}
	base, err := ladder.Run(config(opts, "astar", ladder.SchemeHybrid))
	if err != nil {
		t.Fatal(err)
	}
	cfg := config(opts, "astar", ladder.SchemeHybrid)
	cfg.WearLeveling, cfg.VWLPeriod, cfg.ProactiveWearLimit, cfg.SpareRows = true, period, base.MaxRowWrites/2+1, spares
	leveled, err := ladder.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if leveled.Remap == nil || leveled.Remap.GapMoves == 0 {
		t.Fatal("leveled run made no gap moves; the geometry would not matter")
	}
	got := study.Cells[0].RelativeLifetime
	if want := relativeLifetime(smallGeometry(), base, leveled, spares); got != want {
		t.Errorf("relative lifetime = %v, want %v from the cells' geometry", got, want)
	}
	if def := relativeLifetime(ladder.DefaultGeometry(), base, leveled, spares); got == def {
		t.Errorf("relative lifetime %v equals the default-geometry reading", got)
	}
}

func TestCacheSizeSweepAndLowRows(t *testing.T) {
	opts := ladder.Options{Instr: 15_000, Seed: 1, Tables: smallTables(t), Workloads: []string{"astar"}}
	rows, err := cachesize(ladder.SchemeHybrid, 16, 64).rows(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Values["64KB"] <= 0 {
		t.Fatalf("cache sweep rows = %+v", rows)
	}
	lp, err := lowrows(0, 128).rows(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(lp) != 1 || lp[0].Values["rows=128 svc"] <= 0 {
		t.Fatalf("low-precision rows = %+v", lp)
	}
}

// TestWearStudyOnLineModeBase: with Base.VWLMode "line" the leveled run
// builds no decoder, so it has no remap accounting; the study reads its
// gap moves as 0 instead of dereferencing a nil Result.Remap, which used
// to crash the process outside the cell runner's panic isolation.
func TestWearStudyOnLineModeBase(t *testing.T) {
	opts := studyOptions(t)
	opts.Base.VWLMode = "line"
	rows, err := wear(ladder.SchemeHybrid).rows(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Values["gap-moves"] != 0 || r.Values["ipc-ratio"] <= 0 {
			t.Errorf("%s: %v, want 0 gap moves and a positive IPC ratio", r.Workload, r.Values)
		}
	}
}

// TestStudyControlsIgnoreTheSweptKnob: a study's control runs set the
// knob the study sweeps themselves, so a Base that sets it for every
// cell changes nothing. The wear study's control and the lifetime
// sweep's baselines used to level under Base.WearLeveling (every wear
// ratio then read 1), and the ablation's full-range runs used to shrink
// under Base.ShrinkRange.
func TestStudyControlsIgnoreTheSweptKnob(t *testing.T) {
	ctx := context.Background()
	plain := studyOptions(t)
	plain.Workloads = []string{"mix-3"}
	leveled := plain
	leveled.Base.WearLeveling = true

	t.Run("wear", func(t *testing.T) {
		want, err := wear(ladder.SchemeHybrid).rows(ctx, plain)
		if err != nil {
			t.Fatal(err)
		}
		if want[0].Values["ipc-ratio"] == 1 {
			t.Fatal("the fixture's IPC ratio is 1 unleveled too; it cannot tell the control apart")
		}
		got, err := wear(ladder.SchemeHybrid).rows(ctx, leveled)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Base.WearLeveling reached the control: rows %v, want %v", got, want)
		}
	})

	t.Run("lifetime", func(t *testing.T) {
		want, err := lifetimeSweep(ctx, plain, ladder.SchemeHybrid, []int{64}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		got, err := lifetimeSweep(ctx, leveled, ladder.SchemeHybrid, []int{64}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Cells, want.Cells) {
			t.Errorf("Base.WearLeveling reached the baselines: cells %+v, want %+v", got.Cells, want.Cells)
		}
	})

	t.Run("ablation", func(t *testing.T) {
		// The small tables' range does not move under a shrink, so this
		// case runs on the default tables.
		opts := ladder.Options{Instr: 15_000, Seed: 1, Workloads: []string{"lbm"}, Jobs: 2}
		want, err := ablation(ladder.SchemeEst, 4).rows(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		if v := want[0].Values; v["gain-full"] == v["gain-shrunk"] {
			t.Fatalf("shrinking changed nothing (%v); the case cannot tell full from shrunk", v)
		}
		s := &Session{Ctx: ctx, Opts: opts}
		s.Opts.Base.ShrinkRange = 4
		tables, err := experiment(t, "ablation").Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(tables[0].Title, " 4x shrunk") {
			t.Errorf("title %q does not name Base's factor", tables[0].Title)
		}
		if got := tables[0].Rows[:1]; !reflect.DeepEqual(got, want) {
			t.Errorf("with Base.ShrinkRange 4: rows %v, want the 4x study's %v", got, want)
		}
	})
}

// experiment is the declared experiment named name.
func experiment(t *testing.T, name string) Experiment {
	for _, e := range Experiments {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no experiment %q", name)
	return Experiment{}
}
