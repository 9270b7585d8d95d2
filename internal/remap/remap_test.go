package remap

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"ladder/internal/metrics"
	"ladder/internal/reram"
)

func testGeometry() reram.Geometry {
	return reram.Geometry{
		Channels:         2,
		RanksPerChannel:  2,
		BanksPerRank:     8,
		MatGroupsPerBank: 4,
		MatRows:          64,
	}
}

func mustDecoder(t *testing.T, cfg Config) *Decoder {
	t.Helper()
	d, err := NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// instrumented returns a decoder counting into a fresh registry.
func instrumented(t *testing.T, cfg Config) (*Decoder, *metrics.Registry) {
	t.Helper()
	d := mustDecoder(t, cfg)
	reg := metrics.NewRegistry()
	d.Instrument(reg)
	return d, reg
}

// baseConfig is a decoder with no spare pool and free indirection.
func baseConfig() Config {
	return Config{Geom: testGeometry(), TicksPerNs: 4, SpareRows: -1, PenaltyNs: -1}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"base", func(c *Config) {}, true},
		{"gap leveling", func(c *Config) { c.GapSegmentRows = 64; c.GapPeriod = 16 }, true},
		{"default spares", func(c *Config) { c.SpareRows = UseDefault }, true},
		{"default penalty", func(c *Config) { c.PenaltyNs = UseDefault }, true},
		{"negative penalty is free", func(c *Config) { c.PenaltyNs = -2 }, true},
		{"no geometry", func(c *Config) { c.Geom = reram.Geometry{} }, false},
		{"zero ticks per ns", func(c *Config) { c.TicksPerNs = 0 }, false},
		{"negative segment rows", func(c *Config) { c.GapSegmentRows = -1 }, false},
		{"gap without period", func(c *Config) { c.GapSegmentRows = 64 }, false},
		{"spares below -1", func(c *Config) { c.SpareRows = -2 }, false},
		{"NaN penalty", func(c *Config) { c.PenaltyNs = math.NaN() }, false},
		{"infinite penalty", func(c *Config) { c.PenaltyNs = math.Inf(1) }, false},
		{"negative infinite penalty", func(c *Config) { c.PenaltyNs = math.Inf(-1) }, false},
		{"NaN ticks per ns", func(c *Config) { c.TicksPerNs = math.NaN() }, false},
		{"infinite ticks per ns", func(c *Config) { c.TicksPerNs = math.Inf(1) }, false},
	}
	for _, c := range cases {
		cfg := baseConfig()
		c.mutate(&cfg)
		_, err := NewDecoder(cfg)
		if (err == nil) != c.ok {
			t.Errorf("%s: NewDecoder err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestSentinelDefaults pins the UseDefault semantics: the zero value
// selects the default while -1 disables the feature.
func TestSentinelDefaults(t *testing.T) {
	cfg := baseConfig()
	cfg.SpareRows = UseDefault
	if d := mustDecoder(t, cfg); d.spareCap != DefaultSpareRows {
		t.Errorf("spare pool (UseDefault) = %d, want %d", d.spareCap, DefaultSpareRows)
	}
	cfg = baseConfig()
	cfg.SpareRows = -1
	d := mustDecoder(t, cfg)
	if d.spareCap != 0 {
		t.Errorf("spare pool (-1) = %d, want 0 (disabled, not defaulted)", d.spareCap)
	}
	if err := d.RemapSpare(0, 1, 0); err == nil {
		t.Error("remap into a zero-spare pool should fail")
	}
	cfg = baseConfig()
	cfg.SpareRows = 1
	cfg.PenaltyNs = UseDefault
	d = mustDecoder(t, cfg)
	loc, err := testGeometry().Decode(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RemapSpare(0, testGeometry().GlobalRow(loc), 0); err != nil {
		t.Fatal(err)
	}
	// Default 2 ns at 4 ticks/ns = 8 ticks.
	if p := d.PenaltyTicks(loc); p != 8 {
		t.Errorf("PenaltyTicks = %d, want 8 (default 2 ns x 4 ticks/ns)", p)
	}
	cfg.PenaltyNs = -1
	d = mustDecoder(t, cfg)
	if err := d.RemapSpare(0, testGeometry().GlobalRow(loc), 0); err != nil {
		t.Fatal(err)
	}
	if p := d.PenaltyTicks(loc); p != 0 {
		t.Errorf("PenaltyTicks(-1 ns) = %d, want 0 (free, not defaulted)", p)
	}
}

// TestResolveMatchesStartGap pins the decoder's gap arithmetic against a
// directly-driven StartGap: Resolve must shift each wordline by its
// segment's physical slot.
func TestResolveMatchesStartGap(t *testing.T) {
	geom := testGeometry()
	const segRows = 64
	cfg := baseConfig()
	cfg.GapSegmentRows = segRows
	cfg.GapPeriod = 1
	d, reg := instrumented(t, cfg)

	segments := int(geom.Rows()/segRows) + 1
	ref, err := NewStartGap(segments, 1)
	if err != nil {
		t.Fatal(err)
	}

	check := func() {
		t.Helper()
		for line := uint64(0); line < geom.Lines(); line += 97 {
			loc, err := geom.Decode(line)
			if err != nil {
				t.Fatal(err)
			}
			seg := int(geom.GlobalRow(loc)/segRows) % ref.Segments()
			phys, err := ref.Phys(seg)
			if err != nil {
				t.Fatal(err)
			}
			want := (loc.WL + phys) % geom.MatRows
			got, _ := d.Resolve(loc)
			if got.WL != want {
				t.Fatalf("line %d: resolved WL %d, want %d (seg %d phys %d)", line, got.WL, want, seg, phys)
			}
			if got.Row != loc.Row || got.Bank != loc.Bank {
				t.Fatalf("line %d: Resolve must shift only the wordline", line)
			}
		}
	}

	check()
	// Drive a few hundred gap moves and re-verify the mapping tracks.
	var refMoves uint64
	for i := 0; i < 300; i++ {
		moved := d.RecordWrite()
		refMoved := ref.RecordWrite()
		if moved != refMoved {
			t.Fatalf("move %d: decoder moved=%v, reference moved=%v", i, moved, refMoved)
		}
		if refMoved {
			refMoves++
		}
		if i%37 == 0 {
			check()
		}
	}
	check()
	if got := StatsFrom(reg.Snapshot()).GapMoves; got != refMoves {
		t.Fatalf("GapMoves = %d, want %d", got, refMoves)
	}
}

// TestResolveMovesOnlyWordline pins the invariant the content store's
// keying rests on: whatever gap moves and spare remaps happened, Resolve
// changes a location's wordline and nothing else, so the resolved
// location names the same global row, slot and bank as the logical one.
func TestResolveMovesOnlyWordline(t *testing.T) {
	geom := testGeometry()
	cfg := baseConfig()
	cfg.GapSegmentRows = 48 // not a multiple of MatRows: shifts vary per segment
	cfg.GapPeriod = 3
	cfg.SpareRows = UseDefault
	d, reg := instrumented(t, cfg)
	rng := rand.New(rand.NewSource(26))
	locs := make([]reram.Location, 256)
	for i := range locs {
		var err error
		if locs[i], err = geom.Decode(uint64(rng.Int63n(int64(geom.Lines())))); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 40
	shifted := 0
	for round := 0; round < rounds; round++ {
		for i := 0; i < 50; i++ {
			d.RecordWrite()
		}
		if round%8 == 0 {
			// Remap the row of a random location to a spare.
			loc := locs[rng.Intn(len(locs))]
			bank := (loc.Channel*geom.RanksPerChannel+loc.Rank)*geom.BanksPerRank + loc.Bank
			if err := d.RemapSpare(bank, geom.GlobalRow(loc), 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, loc := range locs {
			got, _ := d.Resolve(loc)
			if got.WL < 0 || got.WL >= geom.MatRows {
				t.Fatalf("round %d: %+v resolves to WL %d, outside the crossbar", round, loc, got.WL)
			}
			if got.WL != loc.WL {
				shifted++
			}
			want := loc
			want.WL = got.WL
			if got != want {
				t.Fatalf("round %d: Resolve(%+v) = %+v moved more than the wordline", round, loc, got)
			}
			if geom.GlobalRow(got) != geom.GlobalRow(loc) {
				t.Fatalf("round %d: Resolve(%+v) changed the global row", round, loc)
			}
		}
	}
	st := StatsFrom(reg.Snapshot())
	if st.GapMoves < 100 || st.SpareRemaps != rounds/8 || shifted == 0 {
		t.Fatalf("exercised %d gap moves, %d spare remaps and %d shifted wordlines, want >= 100, %d and > 0",
			st.GapMoves, st.SpareRemaps, shifted, rounds/8)
	}
}

func TestSparePoolExhaustion(t *testing.T) {
	cfg := baseConfig()
	cfg.SpareRows = 2
	d, reg := instrumented(t, cfg)
	if err := d.RemapSpare(4, 10, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.RemapSpare(4, 11, 0); err != nil {
		t.Fatal(err)
	}
	err := d.RemapSpare(4, 12, 0)
	if err == nil {
		t.Fatal("third remap in a 2-spare bank should fail")
	}
	if !strings.Contains(err.Error(), "exhausted") {
		t.Errorf("error %q should mention exhaustion", err)
	}
	// Other banks keep their own pools.
	if err := d.RemapSpare(5, 13, 0); err != nil {
		t.Fatalf("other bank's pool should be untouched: %v", err)
	}
	st := StatsFrom(reg.Snapshot())
	if st.SpareRemaps != 3 || st.SparesUsed != 3 {
		t.Errorf("stats = %+v, want 3 remaps / 3 spares used", st)
	}
}

// TestSpareBaseWrites pins the wear-freshness bookkeeping: a remapped
// row's spare counts wear from the remap-time baseline, and re-remapping
// a worn spare consumes another slot with a new baseline.
func TestSpareBaseWrites(t *testing.T) {
	cfg := baseConfig()
	cfg.SpareRows = 2
	d, reg := instrumented(t, cfg)
	const row = 7
	if _, remapped := d.remapped[row]; d.SpareBaseWrites(row) != 0 || remapped {
		t.Fatal("fresh row should carry no baseline")
	}
	if err := d.RemapSpare(0, row, 100); err != nil {
		t.Fatal(err)
	}
	if _, remapped := d.remapped[row]; !remapped {
		t.Fatal("row not marked remapped")
	}
	if got := d.SpareBaseWrites(row); got != 100 {
		t.Fatalf("baseline = %d, want 100", got)
	}
	// The spare wore out in turn: the row takes a second slot.
	if err := d.RemapSpare(0, row, 200); err != nil {
		t.Fatal(err)
	}
	if got := d.SpareBaseWrites(row); got != 200 {
		t.Fatalf("baseline after re-remap = %d, want 200", got)
	}
	st := StatsFrom(reg.Snapshot())
	if st.SpareRemaps != 2 || st.SparesUsed != 2 {
		t.Errorf("stats = %+v, want 2 remaps / 2 slots", st)
	}
}

// TestPenaltyAccounting pins the charge point: Resolve reports the
// penalty without recording it; PenaltyTicks is the dispatch-time charge
// and the only accumulator.
func TestPenaltyAccounting(t *testing.T) {
	geom := testGeometry()
	cfg := baseConfig()
	cfg.SpareRows = 1
	cfg.PenaltyNs = 3 // 12 ticks at 4 ticks/ns
	d, reg := instrumented(t, cfg)
	loc, err := geom.Decode(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, p := d.Resolve(loc); p != 0 {
		t.Fatalf("unremapped row penalty = %d, want 0", p)
	}
	if err := d.RemapSpare(0, geom.GlobalRow(loc), 0); err != nil {
		t.Fatal(err)
	}
	if _, p := d.Resolve(loc); p != 12 {
		t.Fatalf("enqueue-time penalty = %d, want 12", p)
	}
	if st := StatsFrom(reg.Snapshot()); st.PenaltyTicks != 0 {
		t.Fatalf("Resolve must not record the charge; PenaltyTicks stat = %d", st.PenaltyTicks)
	}
	if p := d.PenaltyTicks(loc); p != 12 {
		t.Fatalf("dispatch penalty = %d, want 12", p)
	}
	if p := d.PenaltyTicks(loc); p != 12 {
		t.Fatalf("second dispatch penalty = %d, want 12", p)
	}
	if st := StatsFrom(reg.Snapshot()); st.PenaltyTicks != 24 || st.Lookups != 2 {
		t.Fatalf("accumulated penalty = %d ticks over %d lookups, want 24 over 2", st.PenaltyTicks, st.Lookups)
	}
}

func TestMaybeRetire(t *testing.T) {
	cfg := baseConfig()
	cfg.SpareRows = 1
	cfg.ProactiveWearLimit = 50
	d, reg := instrumented(t, cfg)
	if !d.ProactiveEnabled() {
		t.Fatal("proactive retirement should be enabled")
	}
	if d.MaybeRetire(0, 9, 49) {
		t.Fatal("row below the wear limit must not retire")
	}
	if !d.MaybeRetire(0, 9, 50) {
		t.Fatal("row at the wear limit should retire")
	}
	if _, remapped := d.remapped[9]; !remapped {
		t.Fatal("retired row not in the remap table")
	}
	// Effective wear resets: the same lifetime count no longer triggers.
	if d.MaybeRetire(0, 9, 50) {
		t.Fatal("freshly retired row must not re-retire at the same count")
	}
	// Pool exhausted: retirement is best-effort, not an error.
	if d.MaybeRetire(0, 10, 99) {
		t.Fatal("retirement from an empty pool should be skipped")
	}
	st := StatsFrom(reg.Snapshot())
	if st.SpareRemaps != 1 || st.SparesUsed != 1 {
		t.Errorf("stats = %+v, want exactly one retirement", st)
	}
}

func TestNilDecoderSafe(t *testing.T) {
	var d *Decoder
	geom := testGeometry()
	loc, err := geom.Decode(0)
	if err != nil {
		t.Fatal(err)
	}
	if got, p := d.Resolve(loc); got != loc || p != 0 {
		t.Fatal("nil decoder must resolve to identity at zero cost")
	}
	if d.PenaltyTicks(loc) != 0 || d.RecordWrite() ||
		d.SpareBaseWrites(0) != 0 || d.ProactiveEnabled() || d.MaybeRetire(0, 0, 1<<62) {
		t.Fatal("nil decoder must be inert")
	}
	if err := d.RemapSpare(0, 0, 0); err == nil {
		t.Fatal("nil decoder cannot grant spares")
	}
	// Instrumenting a nil decoder registers nothing, so decoder-free runs
	// carry no remap.* names.
	reg := metrics.NewRegistry()
	d.Instrument(reg)
	if snap := reg.Snapshot(); len(snap.Counters) != 0 {
		t.Fatalf("nil decoder registered %v", snap.Counters)
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{GapMoves: 1, SpareRemaps: 2, SparesUsed: 3, Lookups: 4, PenaltyTicks: 5}
	b := Stats{GapMoves: 10, SpareRemaps: 20, SparesUsed: 30, Lookups: 40, PenaltyTicks: 50}
	a.Merge(b)
	want := Stats{GapMoves: 11, SpareRemaps: 22, SparesUsed: 33, Lookups: 44, PenaltyTicks: 55}
	if a != want {
		t.Fatalf("merged = %+v, want %+v", a, want)
	}
}
