package sim

import (
	"context"
	"strings"
	"testing"

	"ladder/internal/core"
)

// TestCustomSchemeViaRegistry proves the registry is the real
// construction path: a scheme registered from outside the simulator is
// runnable by name, and a registered clone of the baseline policy
// reproduces the baseline's results exactly.
func TestCustomSchemeViaRegistry(t *testing.T) {
	const name = "test-registered-baseline"
	if _, err := core.SchemeName(name); err != nil {
		core.RegisterScheme(name, func(env *core.Env, _ core.MetaCacheConfig) (core.Scheme, error) {
			return core.NewBaseline(env), nil
		})
	}
	found := false
	for _, n := range SchemeNames() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("SchemeNames() = %v does not list the registered scheme", SchemeNames())
	}
	custom, err := Run(testConfig(t, "astar", name))
	if err != nil {
		t.Fatalf("running a registered custom scheme: %v", err)
	}
	builtin, err := Run(testConfig(t, "astar", SchemeBaseline))
	if err != nil {
		t.Fatal(err)
	}
	if custom.Ticks != builtin.Ticks || custom.Stats != builtin.Stats {
		t.Errorf("registered baseline clone diverged from the built-in: ticks %d vs %d",
			custom.Ticks, builtin.Ticks)
	}
}

func TestUnknownSchemeError(t *testing.T) {
	_, err := Run(testConfig(t, "astar", "no-such-scheme"))
	if err == nil {
		t.Fatal("unknown scheme must fail")
	}
	if !strings.Contains(err.Error(), "no-such-scheme") {
		t.Errorf("error %q does not name the unknown scheme", err)
	}
}

// TestRunGridCtxCancellation checks that a canceled context stops the
// grid: no cells dispatch and the cancellation surfaces as an error.
func TestRunGridCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{Instr: 1_000, Seed: 42, Tables: smallTables(t), Workloads: []string{"astar"}}
	_, err := RunGridCtx(ctx, opts, []string{SchemeBaseline})
	if err == nil {
		t.Fatal("canceled grid must return an error")
	}
	if !strings.Contains(err.Error(), "canceled") {
		t.Errorf("error %q does not mention cancellation", err)
	}
}
