package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"ladder/internal/chaos"
	"ladder/internal/trace"
)

// machineEntry returns the registry's entry for runs of workload at
// seed and the default resident level, nil when the registry holds none.
func machineEntry(workload string, seed int64) *machineInputs {
	sharedInputs.mu.Lock()
	defer sharedInputs.mu.Unlock()
	return sharedInputs.entries[machineKey{workload, residentKey{2, uint64(seed) + 0x5eed}}]
}

// entryTapes returns the tapes e holds for cfg's streams, in core order,
// and fails the test unless e holds exactly one tape per stream.
func entryTapes(t *testing.T, e *machineInputs, cfg Config) []*trace.Tape {
	t.Helper()
	streams, err := coreStreams(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.tapes) != len(streams) {
		t.Fatalf("%s: the entry holds %d tapes, want one per each of %d streams", cfg.Workload, len(e.tapes), len(streams))
	}
	tapes := make([]*trace.Tape, len(streams))
	for i, k := range streams {
		if tapes[i] = e.tapes[k]; tapes[i] == nil {
			t.Fatalf("%s: the entry holds no tape for core %d's stream", cfg.Workload, i)
		}
	}
	return tapes
}

// reportJSON renders a result's report with host timing stripped.
func reportJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(NewReport(res).StripVolatile())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// soloJSON runs cfg alone and renders its stripped report.
func soloJSON(t *testing.T, cfg Config) []byte {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s/%s: %v", cfg.Workload, cfg.Scheme, err)
	}
	return reportJSON(t, res)
}

// TestGoldenSoloSharedResidents pins the registry's bit-identity: for
// every workload and figure scheme, in the default and degraded cell
// configurations, a solo run that draws its resident rows and access
// streams cold, a solo run that views the rows and replays the tapes
// the cold run left in the registry, and the grid cell, which took its
// inputs from the same registry, produce byte-identical reports.
func TestGoldenSoloSharedResidents(t *testing.T) {
	defer DropResidents()
	opts := Options{Instr: 20_000, Seed: 3000, Jobs: 2}
	for _, cc := range cellConfigs {
		variants := make([]Cell, 0, len(FigureSchemes()))
		for _, s := range FigureSchemes() {
			variants = append(variants, Cell{Scheme: s, Edit: cc.edit})
		}
		cells := CrossCells(opts.WorkloadNames(), variants)
		grid, err := RunCells(context.Background(), opts, cells)
		if err != nil {
			t.Fatalf("%s: %v", cc.name, err)
		}
		for i, c := range cells {
			cfg := opts.config(c.Workload, c.Scheme)
			if c.Edit != nil {
				c.Edit(&cfg)
			}
			DropResidents()
			cold := soloJSON(t, cfg)
			e := machineEntry(c.Workload, cfg.Seed)
			if e == nil {
				t.Fatalf("%s %s/%s: the registry kept nothing of the cold run", cc.name, c.Workload, c.Scheme)
			}
			tapes := entryTapes(t, e, cfg)
			warm := soloJSON(t, cfg)
			if machineEntry(c.Workload, cfg.Seed) != e || !slices.Equal(entryTapes(t, e, cfg), tapes) {
				t.Fatalf("%s %s/%s: the second solo run did not replay the cold run's entry", cc.name, c.Workload, c.Scheme)
			}
			if !bytes.Equal(cold, warm) {
				t.Errorf("%s %s/%s: a solo run on retained rows and tapes differs from its cold run", cc.name, c.Workload, c.Scheme)
			}
			if !bytes.Equal(cold, reportJSON(t, grid[i])) {
				t.Errorf("%s %s/%s: the grid cell differs from its cold solo run", cc.name, c.Workload, c.Scheme)
			}
		}
	}
}

// TestSoloRunsShareResidentsConcurrently runs every figure scheme of one
// machine at once, all viewing one registry entry while its rows are
// still being drawn, and compares each with its cold run. Under -race it
// checks the registry's and the shared Resident's locking.
func TestSoloRunsShareResidentsConcurrently(t *testing.T) {
	defer DropResidents()
	schemes := FigureSchemes()
	cfgs := make([]Config, len(schemes))
	cold := make([][]byte, len(schemes))
	for i, s := range schemes {
		cfgs[i] = testConfig(t, "mix-3", s)
		cfgs[i].InstrPerCore = 8_000
		DropResidents()
		cold[i] = soloJSON(t, cfgs[i])
	}
	DropResidents()
	shared := make([][]byte, len(schemes))
	errs := make([]error, len(schemes))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Run(cfgs[i])
			if errs[i] = err; err == nil {
				shared[i], errs[i] = json.Marshal(NewReport(res).StripVolatile())
			}
		}()
	}
	wg.Wait()
	for i, s := range schemes {
		if errs[i] != nil {
			t.Fatalf("%s: %v", s, errs[i])
		}
		if !bytes.Equal(cold[i], shared[i]) {
			t.Errorf("%s: a run sharing its rows with concurrent runs differs from its cold run", s)
		}
	}
	e := machineEntry("mix-3", 42)
	if e == nil || e.users != 0 {
		t.Fatalf("after the runs the machine's entry is %+v, want one no run holds", e)
	}
}

// TestSoloRunsShareStreamsConcurrently runs every figure scheme of one
// machine at once with resident data off, so that the runs share only
// their access streams, each core's tape being drawn by whichever run
// reads furthest while the others replay it. Each run must report as its
// cold run does, and the machine's entry must hold one tape per stream,
// which replays the stream a fresh generator draws. Under -race it
// checks the entry's tape map and the tapes' chunk hand-off.
func TestSoloRunsShareStreamsConcurrently(t *testing.T) {
	defer DropResidents()
	schemes := FigureSchemes()
	cfgs := make([]Config, len(schemes))
	cold := make([][]byte, len(schemes))
	for i, s := range schemes {
		cfgs[i] = testConfig(t, "mix-5", s)
		cfgs[i].InstrPerCore = 8_000
		cfgs[i].ResidentLevel = -1
		DropResidents()
		cold[i] = soloJSON(t, cfgs[i])
	}
	DropResidents()
	shared := make([][]byte, len(schemes))
	errs := make([]error, len(schemes))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Run(cfgs[i])
			if errs[i] = err; err == nil {
				shared[i], errs[i] = json.Marshal(NewReport(res).StripVolatile())
			}
		}()
	}
	wg.Wait()
	for i, s := range schemes {
		if errs[i] != nil {
			t.Fatalf("%s: %v", s, errs[i])
		}
		if !bytes.Equal(cold[i], shared[i]) {
			t.Errorf("%s: a run sharing its streams with concurrent runs differs from its cold run", s)
		}
	}
	sharedInputs.mu.Lock()
	e := sharedInputs.entries[machineKey{"mix-5", cfgs[0].residentKey()}]
	sharedInputs.mu.Unlock()
	if e == nil || e.users != 0 {
		t.Fatalf("after the runs the machine's entry is %+v, want one no run holds", e)
	}
	streams, err := coreStreams(&cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, tape := range entryTapes(t, e, cfgs[0]) {
		k := streams[i]
		gen, err := trace.NewGenerator(k.prof, k.seed, k.basePage)
		if err != nil {
			t.Fatal(err)
		}
		c := tape.Cursor()
		for n := 0; n < 2000; n++ {
			if c.Next() != gen.Next() {
				t.Fatalf("core %d: the shared tape diverges from a fresh generator at access %d", i, n)
			}
		}
	}
}

// TestFailedBuildReleasesItsEntry checks that a solo run whose build
// fails after it took its registry entry (here at the controllers, after
// the cores were built on the entry's tapes) hands the entry back.
func TestFailedBuildReleasesItsEntry(t *testing.T) {
	defer DropResidents()
	DropResidents()
	cfg := testConfig(t, "astar", SchemeBaseline)
	cfg.Geom.RanksPerChannel, cfg.Geom.BanksPerRank = 8, 16
	cfg.Geom.MatGroupsPerBank = 1
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "bank masks") {
		t.Fatalf("Run with 128 banks per channel: err = %v, want the controller's bank-mask error", err)
	}
	e := machineEntry(cfg.Workload, cfg.Seed)
	if e == nil || e.users != 0 {
		t.Fatalf("after the failed build the machine's entry is %+v, want one no run holds", e)
	}
}

// TestSoloRunAfterDropRegeneratesStreams checks that DropResidents drops
// a machine's tapes with its rows: the next solo run builds a new entry
// with new tapes, and reports as the run before the drop did.
func TestSoloRunAfterDropRegeneratesStreams(t *testing.T) {
	defer DropResidents()
	cfg := testConfig(t, "mix-2", SchemeHybrid)
	cfg.InstrPerCore = 8_000
	DropResidents()
	before := soloJSON(t, cfg)
	e := machineEntry(cfg.Workload, cfg.Seed)
	if e == nil {
		t.Fatal("the registry kept nothing of the first run")
	}
	old := entryTapes(t, e, cfg)
	DropResidents()
	if machineEntry(cfg.Workload, cfg.Seed) != nil {
		t.Fatal("DropResidents left the machine's entry in the registry")
	}
	after := soloJSON(t, cfg)
	fresh := machineEntry(cfg.Workload, cfg.Seed)
	if fresh == nil || fresh == e {
		t.Fatalf("the run after DropResidents used entry %p, want a new one (the dropped one was %p)", fresh, e)
	}
	for i, tape := range entryTapes(t, fresh, cfg) {
		if tape == old[i] {
			t.Fatalf("core %d replayed a tape DropResidents dropped", i)
		}
	}
	if !bytes.Equal(before, after) {
		t.Fatal("the run on regenerated streams differs from the run before DropResidents")
	}
}

// TestResidentRegistryRetention checks the retention rule: an entry in
// use is never dropped, at most keepReleased released entries are kept
// (the most recently released), the entries of one seed share one
// counted Resident, drop empties the registry, and an entry dropped
// while in use is not resurrected by its release.
func TestResidentRegistryRetention(t *testing.T) {
	var g inputRegistry
	key := func(w string) machineKey { return machineKey{w, residentKey{2, 7}} }
	held := func(want ...string) {
		t.Helper()
		if len(g.entries) != len(want) {
			t.Fatalf("registry holds %d entries, want %q", len(g.entries), want)
		}
		for _, w := range want {
			if g.entries[key(w)] == nil {
				t.Fatalf("registry lost %s; want %q", w, want)
			}
		}
		// Every entry shares the seed's one Resident, counted once per
		// entry and freed with the last of them.
		wantRows := min(len(want), 1)
		if r := g.rows[residentKey{2, 7}]; len(g.rows) != wantRows || r != nil && r.refs != len(want) {
			t.Fatalf("registry holds Residents %v for entries %q", g.rows, want)
		}
	}

	a, b, c, d := g.acquire(key("a")), g.acquire(key("b")), g.acquire(key("c")), g.acquire(key("d"))
	if again := g.acquire(key("a")); again != a || a.users != 2 {
		t.Fatalf("a second run of a machine got entry %p with %d users, want %p shared by 2", again, a.users, a)
	}
	g.release(a) // a is still held once
	g.release(b)
	g.release(c)
	g.release(d) // three released: b, released first, goes
	held("a", "c", "d")
	g.release(a)
	held("d", "a")

	// A held entry survives any number of other machines coming and going.
	d = g.acquire(key("d"))
	for _, w := range []string{"e", "f", "g", "h"} {
		g.release(g.acquire(key(w)))
		if len(g.idle) > keepReleased || g.entries[key("d")] != d {
			t.Fatalf("after %s: %d idle entries, d kept %v", w, len(g.idle), g.entries[key("d")] == d)
		}
	}
	held("d", "g", "h")

	g.drop()
	held()
	g.release(d) // d was dropped in use: its release must not bring it back
	held()
	if len(g.idle) != 0 {
		t.Fatalf("%d idle entries after drop", len(g.idle))
	}
	if e := g.acquire(key("d")); e == d {
		t.Fatal("a dropped entry was handed out again")
	}
}

// recoverRun runs cfg and returns what it panicked with, nil if it
// returned.
func recoverRun(cfg Config) (r any) {
	defer func() { r = recover() }()
	Run(cfg) //nolint:errcheck // only the panic matters
	return nil
}

// TestInterruptedSoloRunLeavesRowsIntact interrupts solo runs partway,
// once by cancellation and once by a panic in the scheme's first write
// (after the controller drew that write's row), and checks
// that each released its hold on the registry and that a later run
// viewing the rows the interrupted run drew equals its cold run. A run
// the registry forgets partway (DropResidents) must equal its cold run
// too, although runs started after the drop recycle their own rows and
// tapes around it.
func TestInterruptedSoloRunLeavesRowsIntact(t *testing.T) {
	defer DropResidents()
	registerChaosScheme()
	base := testConfig(t, "lbm", SchemeHybrid)
	base.InstrPerCore = 20_000
	DropResidents()
	cold := soloJSON(t, base)

	interrupts := map[string]func(t *testing.T){
		"canceled": func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := base
			cfg.Scheme = SchemeBasic
			cfg.ProgressEvery = 20_000
			cfg.Progress = func(ProgressInfo) { cancel() }
			if _, err := RunCtx(ctx, cfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled run returned %v, want context.Canceled", err)
			}
		},
		"panicked": func(t *testing.T) {
			chaos.Arm("sim.scheme.enqueue", chaos.Action{Panic: "injected scheme bug", Times: 1})
			defer chaos.Reset()
			cfg := base
			cfg.Scheme = chaosSchemeName
			if r := recoverRun(cfg); r != "injected scheme bug" {
				t.Fatalf("recovered %v, want the injected panic", r)
			}
		},
	}
	for name, interrupt := range interrupts {
		t.Run(name, func(t *testing.T) {
			DropResidents()
			interrupt(t)
			e := machineEntry(base.Workload, base.Seed)
			if e == nil || e.users != 0 {
				t.Fatalf("after the interrupted run the machine's entry is %+v, want one no run holds", e)
			}
			if warm := soloJSON(t, base); !bytes.Equal(cold, warm) {
				t.Fatal("a run on the rows an interrupted run drew differs from its cold run")
			}
		})
	}
	t.Run("dropped", func(t *testing.T) {
		DropResidents()
		cfg := base
		cfg.ProgressEvery = 20_000
		dropped := false
		cfg.Progress = func(ProgressInfo) {
			if dropped {
				return
			}
			dropped = true
			DropResidents()
			// Machines of the run's seed, then of another seed: the
			// registry evicts every machine of the run's seed started
			// after the drop and recycles their rows and tapes.
			for i, w := range []string{"mcf", "astar", "mcf", "astar", "libq"} {
				other := base
				other.Workload, other.Seed = w, base.Seed+int64(i/2)
				soloJSON(t, other)
			}
		}
		if got := soloJSON(t, cfg); !dropped || !bytes.Equal(got, cold) {
			t.Fatalf("a run the registry forgot partway (dropped %v) differs from its cold run", dropped)
		}
	})
}
