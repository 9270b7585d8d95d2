package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ladder/internal/chaos"
	"ladder/internal/core"
)

// chaosScheme wraps the baseline policy with a chaos failpoint on the
// write path: disarmed it is byte-for-byte the baseline, armed it fails
// the way a buggy scheme would (panic, injected error via panic — the
// Scheme interface has no error returns on this path).
type chaosScheme struct{ core.Scheme }

func (c *chaosScheme) Enqueue(req *core.WriteRequest) ([]core.AuxRead, []core.MetaWriteback) {
	chaos.Hit("sim.scheme.enqueue") //nolint:errcheck // panic-only failpoint
	return c.Scheme.Enqueue(req)
}

const chaosSchemeName = "test-chaos-baseline"

func registerChaosScheme() {
	if _, err := core.SchemeName(chaosSchemeName); err == nil {
		return
	}
	core.RegisterScheme(chaosSchemeName, func(env *core.Env, _ core.MetaCacheConfig) (core.Scheme, error) {
		return &chaosScheme{Scheme: core.NewBaseline(env)}, nil
	})
}

// TestGridPanicIsolation pins the satellite fix: a panic in one grid
// cell's worker used to kill the whole process; now it converts to that
// cell's error — stack included — and the grid returns it like any
// other failure while the process (and this test binary) survives.
func TestGridPanicIsolation(t *testing.T) {
	registerChaosScheme()
	chaos.Arm("sim.scheme.enqueue", chaos.Action{Panic: "injected scheme bug", Times: 1})
	defer chaos.Reset()

	opts := Options{
		Instr: 5_000, Seed: 42, Tables: smallTables(t),
		Workloads: []string{"astar"}, Jobs: 1,
	}
	_, err := RunGridCtx(context.Background(), opts, []string{chaosSchemeName})
	if err == nil {
		t.Fatal("grid with a panicking scheme must fail")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error does not unwrap to *PanicError: %v", err)
	}
	if pe.Value != "injected scheme bug" {
		t.Fatalf("panic value = %v, want the injected one", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "Enqueue") {
		t.Fatalf("panic stack does not show the panic site:\n%s", pe.Stack)
	}
	if !strings.Contains(err.Error(), "astar/"+chaosSchemeName) {
		t.Fatalf("error does not name the failed cell: %v", err)
	}
}

// TestGridPanicDoesNotMaskHealthyCells checks a panicking cell fails
// only itself: the healthy cell's run completed or was canceled, and
// the joined error carries the panic without the process dying.
func TestGridPanicDoesNotMaskHealthyCells(t *testing.T) {
	registerChaosScheme()
	chaos.Arm("sim.scheme.enqueue", chaos.Action{Panic: "injected scheme bug", Times: 1})
	defer chaos.Reset()

	opts := Options{
		Instr: 5_000, Seed: 42, Tables: smallTables(t),
		Workloads: []string{"astar"}, Jobs: 2,
	}
	_, err := RunGridCtx(context.Background(), opts, []string{SchemeBaseline, chaosSchemeName})
	if err == nil {
		t.Fatal("grid must report the panicking cell")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error does not unwrap to *PanicError: %v", err)
	}
	// The baseline cell must never surface a panic of its own.
	if strings.Count(err.Error(), "panic:") != 1 {
		t.Fatalf("expected exactly one panicking cell, got: %v", err)
	}
}

// TestRunCtxDeadline pins the deadline plumbing: a run whose context
// expires aborts at the next interrupt poll with the context's cause,
// instead of simulating to completion.
func TestRunCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	cfg := testConfig(t, "lbm", SchemeBaseline)
	cfg.InstrPerCore = 50_000_000 // far beyond what 20ms of wall clock can simulate
	start := time.Now()
	_, err := RunCtx(ctx, cfg)
	if err == nil {
		t.Fatal("run must abort when its context deadline passes")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded in the chain", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("run aborted only after %v — interrupt polling is not working", elapsed)
	}
}

// TestRunCtxCancelCause checks the structured cancellation cause — what
// the service's watchdog attaches — survives to the run error.
func TestRunCtxCancelCause(t *testing.T) {
	cause := errors.New("watchdog: no heartbeat")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	cfg := testConfig(t, "astar", SchemeBaseline)
	cfg.InstrPerCore = 1_000_000
	_, err := RunCtx(ctx, cfg)
	if err == nil {
		t.Fatal("run under a pre-canceled context must fail")
	}
	if !errors.Is(err, cause) {
		t.Fatalf("error = %v, want the cancellation cause in the chain", err)
	}
}
