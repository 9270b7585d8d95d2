package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ladder/internal/core"
)

const studiesGolden = "testdata/studies.golden"

// studyOptions is the studies' shared fixture: small tables and two
// workloads, one single-core and one four-core mix.
func studyOptions(t *testing.T) Options {
	return Options{Instr: 15_000, Seed: 1, Tables: smallTables(t), Workloads: []string{"lbm", "mix-3"}}
}

// writeStudyRows renders rows one per line, values in key order and in
// strconv's shortest round-trippable form, so equality is bit-for-bit.
func writeStudyRows(b *bytes.Buffer, name string, rows []Row) {
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

// study is one of the eight studies, run under ctx and rendered as rows
// (LifetimeSweep renders its Rows). scheme is the one the golden records.
type study struct {
	name, scheme string
	run          func(ctx context.Context, opts Options, scheme string) ([]Row, error)
}

// studies runs each study on short parameter lists. LowPrecisionSweep
// always runs LADDER-Hybrid; the others run the given scheme (and, where
// they compare against one, the baseline).
var studies = []study{
	{"RangeAblation", SchemeEst, func(ctx context.Context, o Options, s string) ([]Row, error) {
		return RangeAblation(ctx, o, s, 2)
	}},
	{"CrashRecoveryStudy", SchemeEst, CrashRecoveryStudy},
	{"VWLModeComparison", SchemeEst, VWLModeComparison},
	{"CacheSizeSweep", SchemeHybrid, func(ctx context.Context, o Options, s string) ([]Row, error) {
		return CacheSizeSweep(ctx, o, s, []int{16, 64})
	}},
	{"LowPrecisionSweep", SchemeHybrid, func(ctx context.Context, o Options, _ string) ([]Row, error) {
		return LowPrecisionSweep(ctx, o, []int{0, 128})
	}},
	{"ReliabilitySweep", SchemeHybrid, func(ctx context.Context, o Options, s string) ([]Row, error) {
		return ReliabilitySweep(ctx, o, []string{SchemeBasic, s}, []float64{0.01})
	}},
	{"WearLevelingImpact", SchemeHybrid, WearLevelingImpact},
	{"LifetimeSweep", SchemeHybrid, func(ctx context.Context, o Options, s string) ([]Row, error) {
		st, err := LifetimeSweep(ctx, o, s, []int{16, 64}, []int{0, 16})
		if err != nil {
			return nil, err
		}
		return st.Rows(), nil
	}},
}

// studiesGoldenText runs all eight studies on short parameter lists and
// renders every reported value.
func studiesGoldenText(t *testing.T, opts Options) []byte {
	t.Helper()
	ctx := context.Background()
	var b bytes.Buffer
	for _, s := range studies[:len(studies)-1] { // LifetimeSweep, last, is rendered in full below
		rows, err := s.run(ctx, opts, s.scheme)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		writeStudyRows(&b, s.name, rows)
	}
	life, err := LifetimeSweep(ctx, opts, SchemeHybrid, []int{16, 64}, []int{0, 16})
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
// worker and on four: the studies' cells run on runCells' pool, and the
// reduce over them must not depend on completion order.
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

// TestStudiesCancelAndPanic: every study runs its cells on runCells, so
// a canceled context surfaces as an error with no rows, and a panicking
// scheme becomes a *PanicError instead of crashing the process.
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
			rows, err := s.run(canceled, opts, SchemeHybrid)
			if !errors.Is(err, context.Canceled) || rows != nil {
				t.Fatalf("canceled study: rows=%v err=%v, want no rows and context.Canceled", rows, err)
			}
			if s.name == "LowPrecisionSweep" {
				return // its scheme is fixed
			}
			rows, err = s.run(context.Background(), opts, panicSchemeName)
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Value != "injected scheme bug" || rows != nil {
				t.Fatalf("panicking study: rows=%v err=%v, want no rows and the injected *PanicError", rows, err)
			}
		})
	}
}
