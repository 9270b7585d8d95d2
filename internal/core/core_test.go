package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"ladder/internal/bits"
	"ladder/internal/circuit"
	"ladder/internal/metrics"
	"ladder/internal/reram"
	"ladder/internal/timing"
)

var (
	tablesOnce sync.Once
	testTables *timing.TableSet
	tablesErr  error
)

// testGeometry is a small memory whose crossbar matches the test tables.
func testGeometry() reram.Geometry {
	return reram.Geometry{
		Channels:         2,
		RanksPerChannel:  2,
		BanksPerRank:     8,
		MatGroupsPerBank: 4,
		MatRows:          64,
	}
}

func testEnv(t *testing.T) *Env {
	t.Helper()
	tablesOnce.Do(func() {
		p := circuit.DefaultParams()
		p.N = 64
		testTables, tablesErr = timing.NewTableSet(p)
	})
	if tablesErr != nil {
		t.Fatal(tablesErr)
	}
	store, err := reram.NewStore(testGeometry())
	if err != nil {
		t.Fatal(err)
	}
	return &Env{Geom: testGeometry(), Store: store, Tables: testTables, Metrics: metrics.NewRegistry()}
}

// envStats reads the env's run-level counts out of its registry.
func envStats(env *Env) Stats { return StatsFrom(env.Metrics.Snapshot()) }

func newReq(t *testing.T, env *Env, line uint64, data bits.Line) *WriteRequest {
	t.Helper()
	loc, err := env.Geom.Decode(line)
	if err != nil {
		t.Fatal(err)
	}
	return &WriteRequest{Line: line, Loc: loc, Data: data}
}

func denseLine() bits.Line {
	var l bits.Line
	for i := range l {
		l[i] = 0xff
	}
	return l
}

// --- metadata cache ---

func TestMetaCacheGeometry(t *testing.T) {
	c, err := NewMetaCache(DefaultMetaCacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.sets) != 256 {
		t.Fatalf("sets = %d, want 256 (64KB / 64B / 4 ways)", len(c.sets))
	}
	if c.cfg.SpillSize != 16 {
		t.Fatalf("spill capacity = %d, want 16", c.cfg.SpillSize)
	}
}

func TestMetaCacheRejectsBadConfig(t *testing.T) {
	if _, err := NewMetaCache(MetaCacheConfig{SizeBytes: 100, Ways: 3, SpillSize: 16}); err == nil {
		t.Fatal("expected geometry error")
	}
	if _, err := NewMetaCache(MetaCacheConfig{SizeBytes: 64 << 10, Ways: 4, SpillSize: 0}); err == nil {
		t.Fatal("expected spill size error")
	}
}

func TestMetaCacheMissReserveFill(t *testing.T) {
	c, _ := NewMetaCache(DefaultMetaCacheConfig())
	if present, _ := c.Lookup(42); present {
		t.Fatal("cold cache should miss")
	}
	wb, ok := c.Reserve(42, reram.Location{})
	if !ok || wb != nil {
		t.Fatalf("reserve into empty set: ok=%v wb=%v", ok, wb)
	}
	present, valid := c.Lookup(42)
	if !present || valid {
		t.Fatalf("filling line: present=%v valid=%v", present, valid)
	}
	c.Fill(42)
	if _, valid := c.Lookup(42); !valid {
		t.Fatal("filled line should be valid")
	}
	if e := c.find(42); e == nil || e.sharers != 1 {
		t.Fatalf("sharers = %+v, want 1 (from Reserve)", e)
	}
}

func TestMetaCacheEvictionRespectsSharers(t *testing.T) {
	// Tiny cache: 1 set, 2 ways.
	c, err := NewMetaCache(MetaCacheConfig{SizeBytes: 128, Ways: 2, SpillSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Reserve(1, reram.Location{}); !ok {
		t.Fatal("reserve 1")
	}
	if _, ok := c.Reserve(2, reram.Location{}); !ok {
		t.Fatal("reserve 2")
	}
	// Both ways held by sharers: a third reservation must fail.
	if _, ok := c.Reserve(3, reram.Location{}); ok {
		t.Fatal("reserve should fail with all sharers held")
	}
	// Releasing one makes room; the dirty victim yields a writeback.
	c.Fill(1)
	c.MarkDirty(1)
	c.Release(1)
	wb, ok := c.Reserve(3, reram.Location{})
	if !ok {
		t.Fatal("reserve should succeed after release")
	}
	if wb == nil || wb.Key != 1 {
		t.Fatalf("expected dirty writeback of key 1, got %v", wb)
	}
	// The persisted copy must hold the evicted data.
	if _, valid := c.Lookup(1); valid {
		t.Fatal("evicted line should be gone")
	}
}

func TestMetaCacheDirtyDataPersists(t *testing.T) {
	c, err := NewMetaCache(MetaCacheConfig{SizeBytes: 64, Ways: 1, SpillSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.Reserve(10, reram.Location{})
	c.Fill(10)
	d := c.Data(10)
	d[5] = 0xaa
	c.MarkDirty(10)
	c.Release(10)
	// Evict by reserving a conflicting key (1 set: everything conflicts).
	if _, ok := c.Reserve(11, reram.Location{}); !ok {
		t.Fatal("reserve 11")
	}
	if got := c.backing[10]; got[5] != 0xaa {
		t.Fatalf("backing[5] = %#x, want 0xaa", got[5])
	}
	// Refetching returns the persisted content.
	c.Release(11)
	c.Reserve(10, reram.Location{})
	c.Fill(10)
	if got := c.Data(10); got[5] != 0xaa {
		t.Fatal("refill lost persisted data")
	}
}

func TestMetaCacheReleasePanicsOnUnderflow(t *testing.T) {
	c, _ := NewMetaCache(MetaCacheConfig{SizeBytes: 64, Ways: 1, SpillSize: 4})
	c.Reserve(1, reram.Location{})
	c.Release(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative sharers")
		}
	}()
	c.Release(1)
}

// --- layout ---

func TestStorageOverheadsMatchPaper(t *testing.T) {
	l := NewLayout(reram.DefaultGeometry())
	if got := l.StorageOverheadBasic(); math.Abs(got-0.03125) > 1e-9 {
		t.Fatalf("basic overhead = %v, want 3.125%%", got)
	}
	if got := l.StorageOverheadEst(); math.Abs(got-0.015625) > 1e-9 {
		t.Fatalf("est overhead = %v, want 1.5625%%", got)
	}
	// Hybrid with the paper's bottom-128-of-512 rows: 3/4·64B + 1/4·16B
	// per page = 52B/4KB ≈ 1.27%. (The paper headline of 0.97% matches a
	// half-and-half split; see EXPERIMENTS.md.)
	if got := l.StorageOverheadHybrid(); math.Abs(got-0.0126953125) > 1e-9 {
		t.Fatalf("hybrid overhead = %v, want ~1.27%%", got)
	}
	if l.StorageOverheadHybrid() >= l.StorageOverheadEst() {
		t.Fatal("hybrid must cost less than est")
	}
	if l.StorageOverheadEst() >= l.StorageOverheadBasic() {
		t.Fatal("est must cost less than basic")
	}
}

func TestLayoutKeysDistinct(t *testing.T) {
	l := NewLayout(testGeometry())
	b0 := l.BasicKeys(7)
	b1 := l.BasicKeys(8)
	if b0[0] == b0[1] || b0[1] == b1[0] {
		t.Fatal("basic keys collide")
	}
	// High rows (the whole Est layout) key by wordline group.
	k7, low7 := l.HybridKey(0, 7, l.LowPrecisionRows)
	k8, _ := l.HybridKey(0, 8, l.LowPrecisionRows)
	if low7 || k7 == k8 {
		t.Fatal("est keys collide")
	}
	// Low-precision grouping: four address-adjacent same-channel pages
	// share a line. With 2 channels, pages 0, 2, 4, 6 (lines 0, 128, 256,
	// 384) are channel 0's first group.
	ch := uint64(l.Geom.Channels)
	lowA, lA := l.HybridKey(0, 0, 0)
	lowB, lB := l.HybridKey(2*ch*reram.BlocksPerRow, 99, 0)
	if !lA || !lB {
		t.Fatal("WL 0 should be low precision")
	}
	if lowA != lowB {
		t.Fatal("address-adjacent same-channel pages should share a line")
	}
	lowC, _ := l.HybridKey(4*ch*reram.BlocksPerRow, 0, 0)
	if lowC == lowA {
		t.Fatal("the fifth page should use a different line")
	}
	lowD, _ := l.HybridKey(reram.BlocksPerRow, 0, 0) // other channel
	if lowD == lowA {
		t.Fatal("pages on different channels must not share a line")
	}
	highKey, low := l.HybridKey(0, 4, l.LowPrecisionRows)
	if low {
		t.Fatal("WL at threshold should be high precision")
	}
	if highKey&hybridLowKeyBit != 0 {
		t.Fatal("high-precision key must not carry the low tag")
	}
	// The four covered rows invert back to the key's group.
	lines := l.LowGroupLines(lowA)
	for q, base := range lines {
		k, lw := l.HybridKey(base, 0, 0)
		if !lw || k != lowA {
			t.Fatalf("LowGroupLines[%d] = %d does not map back to the key", q, base)
		}
		if got := l.LowGroupIndex(base); got != q {
			t.Fatalf("quarter of line %d = %d, want %d", base, got, q)
		}
	}
}

func TestMetaLocInReservedRegion(t *testing.T) {
	g := testGeometry()
	l := NewLayout(g)
	dataLoc, err := g.Decode(123)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 50; key++ {
		loc := l.MetaLoc(key, dataLoc)
		if loc.Channel != dataLoc.Channel || loc.Bank != dataLoc.Bank {
			t.Fatal("metadata must stay in the data's bank")
		}
		if loc.Row < g.RowsPerBank()-g.RowsPerBank()/25-1 || loc.Row >= g.RowsPerBank() {
			t.Fatalf("metadata row %d outside reserved region", loc.Row)
		}
	}
}

// --- simple schemes ---

func TestBaselineAlwaysWorstCase(t *testing.T) {
	env := testEnv(t)
	s := NewBaseline(env)
	req := newReq(t, env, 0, denseLine())
	if aux, wbs := s.Enqueue(req); len(aux) != 0 || len(wbs) != 0 {
		t.Fatal("baseline must not issue aux traffic")
	}
	if !s.Ready(req) {
		t.Fatal("baseline writes are always ready")
	}
	if got := s.Latency(req); got != env.Tables.WorstNs {
		t.Fatalf("latency = %v, want worst %v", got, env.Tables.WorstNs)
	}
}

func TestLocationAwareNearFasterThanFar(t *testing.T) {
	env := testEnv(t)
	s := NewLocationAware(env)
	near := newReq(t, env, 0, bits.Line{}) // row 0, slot 0
	// A line in the same bank at the farthest crossbar row: bank rows are
	// Banks() apart in row-walk order; crossbar row = Row % MatRows.
	farLine := uint64(env.Geom.MatRows-1) * uint64(env.Geom.Banks()) * reram.BlocksPerRow
	farLine += reram.BlocksPerRow - 1 // worst slot
	far := newReq(t, env, farLine, bits.Line{})
	if far.Loc.WL != env.Geom.MatRows-1 {
		t.Fatalf("far request WL = %d", far.Loc.WL)
	}
	if s.Latency(near) >= s.Latency(far) {
		t.Fatalf("near %v should beat far %v", s.Latency(near), s.Latency(far))
	}
}

func TestOracleTracksContent(t *testing.T) {
	env := testEnv(t)
	s := NewOracle(env)
	req := newReq(t, env, 0, bits.Line{})
	empty := s.Latency(req)
	// Fill the wordline group with dense data.
	for slot := uint64(0); slot < reram.BlocksPerRow; slot++ {
		if _, err := env.Store.Write(slot, denseLine()); err != nil {
			t.Fatal(err)
		}
	}
	full := s.Latency(req)
	if full <= empty {
		t.Fatalf("oracle latency must grow with content: empty %v, full %v", empty, full)
	}
}

func TestSplitResetCompressionMatters(t *testing.T) {
	env := testEnv(t)
	s := NewSplitReset(env)
	comp := newReq(t, env, 0, bits.Line{}) // zero line: compressible
	s.Enqueue(comp)
	var randomish bits.Line
	for i := range randomish {
		randomish[i] = byte(37*i + 11)
	}
	incomp := newReq(t, env, 1, randomish)
	s.Enqueue(incomp)
	lc, li := s.Latency(comp), s.Latency(incomp)
	if math.Abs(li-2*lc) > 1e-9 {
		t.Fatalf("incompressible write should take two phases: %v vs %v", li, lc)
	}
}

func TestBLPTracksBitlineContent(t *testing.T) {
	env := testEnv(t)
	s := NewBLP(env)
	req := newReq(t, env, 0, bits.Line{})
	cold := s.Latency(req)
	// Load the same bitlines (slot 0) of most rows in the same mat group
	// with dense data, crossing BLP's fast/slow threshold (3/4 full).
	var l bits.Line
	for i := range l {
		l[i] = 0xff
	}
	for i := 0; i < env.Geom.MatRows*3/4+2; i++ {
		line := uint64(i) * uint64(env.Geom.Banks()) * reram.BlocksPerRow
		if _, err := env.Store.Write(line, l); err != nil {
			t.Fatal(err)
		}
	}
	warm := s.Latency(req)
	if warm <= cold {
		t.Fatalf("BLP latency must grow with bitline content: %v vs %v", warm, cold)
	}
	if warm != env.Tables.BL.LocationOnly(req.Loc.WL, req.Loc.BLHigh) {
		t.Fatalf("above-threshold write should use the slow class, got %v", warm)
	}
}

// --- LADDER-Basic ---

func TestBasicLifecycle(t *testing.T) {
	env := testEnv(t)
	s, err := NewBasicCache(env, DefaultMetaCacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	req := newReq(t, env, 0, denseLine())
	aux, wbs := s.Enqueue(req)
	if len(wbs) != 0 {
		t.Fatal("no evictions expected on a cold cache")
	}
	// One SMB read + two metadata line reads.
	var smb, meta int
	for _, a := range aux {
		switch a.Kind {
		case AuxSMB:
			smb++
		case AuxMeta:
			meta++
		}
	}
	if smb != 1 || meta != 2 {
		t.Fatalf("aux reads smb=%d meta=%d, want 1 and 2", smb, meta)
	}
	if s.Ready(req) {
		t.Fatal("not ready before SMB and metadata arrive")
	}
	s.SMBArrived(req, bits.Line{})
	if s.Ready(req) {
		t.Fatal("not ready before metadata arrives")
	}
	for _, a := range aux {
		if a.Kind == AuxMeta {
			s.MetaArrived(a.Key)
		}
	}
	if !s.Ready(req) {
		t.Fatal("ready once SMB and metadata are in")
	}
	// Cold metadata: counters zero -> near-minimal latency at row 0.
	lat := s.Latency(req)
	if lat >= env.Tables.WorstNs {
		t.Fatalf("cold-row latency %v should beat worst case", lat)
	}
	// Persist the write, then Complete must sync the cached counters to
	// the store's exact values.
	old, err := env.Store.Write(req.Line, req.Payload)
	if err != nil {
		t.Fatal(err)
	}
	s.Complete(req, old, req.Payload)
	counters := env.Store.RowCounters(env.Geom.GlobalRow(req.Loc))
	got, ok := s.maxCounter(req.MetaKeys)
	if !ok {
		t.Fatal("metadata lines should still be cached")
	}
	want := 0
	for _, c := range counters {
		if int(c) > want {
			want = int(c)
		}
	}
	if got != want {
		t.Fatalf("cached max counter %d != store %d", got, want)
	}
	if st := envStats(env); st.SMBReads != 1 || st.MetaReads != 2 {
		t.Fatalf("stats: smb=%d meta=%d", st.SMBReads, st.MetaReads)
	}
}

func TestBasicSecondWriteHitsCache(t *testing.T) {
	env := testEnv(t)
	s, err := NewBasicCache(env, DefaultMetaCacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	first := newReq(t, env, 0, denseLine())
	aux, _ := s.Enqueue(first)
	s.SMBArrived(first, bits.Line{})
	for _, a := range aux {
		if a.Kind == AuxMeta {
			s.MetaArrived(a.Key)
		}
	}
	old, _ := env.Store.Write(first.Line, first.Payload)
	s.Complete(first, old, first.Payload)

	second := newReq(t, env, 1, denseLine()) // same wordline group
	aux, _ = s.Enqueue(second)
	for _, a := range aux {
		if a.Kind == AuxMeta {
			t.Fatal("second write in the page should hit the metadata cache")
		}
	}
	if envStats(env).MetaCacheHits == 0 {
		t.Fatal("expected a metadata cache hit")
	}
}

// --- LADDER-Est ---

func TestEstLifecycleAndEstimateSound(t *testing.T) {
	env := testEnv(t)
	s, err := NewEstCache(env, true, DefaultMetaCacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	req := newReq(t, env, 0, denseLine())
	aux, _ := s.Enqueue(req)
	if len(aux) != 1 || aux[0].Kind != AuxMeta {
		t.Fatalf("est should issue exactly one metadata read, got %v", aux)
	}
	if envStats(env).SMBReads != 0 {
		t.Fatal("est must not read SMBs")
	}
	s.MetaArrived(aux[0].Key)
	if !s.Ready(req) {
		t.Fatal("ready after metadata fill")
	}
	est, ok := s.estimate(req)
	if !ok {
		t.Fatal("estimate unavailable")
	}
	// Soundness: estimate must bound the true post-write C^w_lrs.
	if _, err := env.Store.Write(req.Line, req.Payload); err != nil {
		t.Fatal(err)
	}
	truth := env.Store.MaxRowCounter(env.Geom.GlobalRow(req.Loc))
	if est < truth {
		t.Fatalf("estimate %d below truth %d", est, truth)
	}
}

func TestEstDecodeReadRoundTrip(t *testing.T) {
	env := testEnv(t)
	s, err := NewEstCache(env, true, DefaultMetaCacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	var data bits.Line
	for i := range data {
		data[i] = byte(i * 7)
	}
	req := newReq(t, env, 321, data)
	s.Enqueue(req)
	if req.Payload == data {
		t.Fatal("est should shift the payload")
	}
	if got := s.DecodeRead(req.Loc, req.Payload); got != data {
		t.Fatal("DecodeRead failed to invert the shift")
	}
}

func TestEstNoShiftOption(t *testing.T) {
	env := testEnv(t)
	s, err := NewEstCache(env, false, DefaultMetaCacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	req := newReq(t, env, 0, denseLine())
	s.Enqueue(req)
	if req.Payload != req.Data {
		t.Fatal("noshift est must store the raw line")
	}
}

// TestShiftingSchemeStoresResidentShifted checks that a shifting scheme
// routes resident data through its own datapath: the stored blocks are
// the shifted form of what the no-shift arm stores, and DecodeRead
// recovers the logical content.
func TestShiftingSchemeStoresResidentShifted(t *testing.T) {
	shiftEnv, rawEnv := testEnv(t), testEnv(t)
	shiftEnv.Store.SetResident(2, 7)
	rawEnv.Store.SetResident(2, 7)
	withShift, err := NewEstCache(shiftEnv, true, DefaultMetaCacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEstCache(rawEnv, false, DefaultMetaCacheConfig()); err != nil {
		t.Fatal(err)
	}
	resident := 0
	for line := uint64(0); line < 4*reram.BlocksPerRow; line++ {
		loc, err := shiftEnv.Geom.Decode(line)
		if err != nil {
			t.Fatal(err)
		}
		shiftEnv.Store.EnsureRow(shiftEnv.Geom.GlobalRow(loc))
		rawEnv.Store.EnsureRow(rawEnv.Geom.GlobalRow(loc))
		stored, raw := shiftEnv.Store.Read(loc), rawEnv.Store.Read(loc)
		if raw != (bits.Line{}) {
			resident++
		}
		if stored != bits.Shifted(raw, loc.Slot) {
			t.Errorf("line %d: resident block not stored through the shift", line)
		}
		if got := withShift.DecodeRead(loc, stored); got != raw {
			t.Errorf("line %d: DecodeRead does not recover the resident content", line)
		}
	}
	if resident == 0 {
		t.Fatal("no resident data was prefilled")
	}
}

func TestEstShiftingLowersEstimates(t *testing.T) {
	env := testEnv(t)
	withShift, _ := NewEstCache(env, true, DefaultMetaCacheConfig())
	env2 := testEnv(t)
	noShift, _ := NewEstCache(env2, false, DefaultMetaCacheConfig())
	// Clustered line: one dense byte per chip group.
	var clustered bits.Line
	for g := 0; g < bits.ChipGroups; g++ {
		clustered[g*8] = 0xff
	}
	r1 := newReq(t, env, 0, clustered)
	a1, _ := withShift.Enqueue(r1)
	withShift.MetaArrived(a1[0].Key)
	r2 := newReq(t, env2, 0, clustered)
	a2, _ := noShift.Enqueue(r2)
	noShift.MetaArrived(a2[0].Key)
	e1, _ := withShift.estimate(r1)
	e2, _ := noShift.estimate(r2)
	if e1 >= e2 {
		t.Fatalf("shifting should lower the estimate: %d vs %d", e1, e2)
	}
}

// --- LADDER-Hybrid ---

func TestHybridLowPrecisionPath(t *testing.T) {
	env := testEnv(t)
	s, err := NewHybridCache(env, DefaultMetaCacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.SetLowPrecisionRows(32)                // rows 0..31 of the 64-row test crossbar
	lowReq := newReq(t, env, 0, denseLine()) // WL 0: low precision
	aux, _ := s.Enqueue(lowReq)
	if len(aux) != 1 {
		t.Fatalf("aux = %v", aux)
	}
	if lowReq.MetaKeys[0]&hybridLowKeyBit == 0 {
		t.Fatal("low-precision request should use the shared key space")
	}
	s.MetaArrived(aux[0].Key)
	est, ok := s.estimate(lowReq)
	if !ok {
		t.Fatal("estimate unavailable")
	}
	if _, err := env.Store.Write(lowReq.Line, lowReq.Payload); err != nil {
		t.Fatal(err)
	}
	truth := env.Store.MaxRowCounter(env.Geom.GlobalRow(lowReq.Loc))
	if est < truth {
		t.Fatalf("low-precision estimate %d below truth %d", est, truth)
	}
	s.Complete(lowReq, bits.Line{}, lowReq.Payload)

	// A high row uses the Est path.
	highLine := uint64(40) * uint64(env.Geom.Banks()) * reram.BlocksPerRow
	highReq := newReq(t, env, highLine, denseLine())
	if highReq.Loc.WL < 32 {
		t.Fatalf("test setup: WL = %d, want >= 32", highReq.Loc.WL)
	}
	aux, _ = s.Enqueue(highReq)
	if highReq.MetaKeys[0]&hybridLowKeyBit != 0 {
		t.Fatal("high-precision request should use the est key space")
	}
}

func TestHybridSharedLineAcrossPages(t *testing.T) {
	env := testEnv(t)
	s, err := NewHybridCache(env, DefaultMetaCacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.SetLowPrecisionRows(64) // everything low precision
	// Two address-adjacent pages on the same channel share a
	// low-precision group: with 2 channels, pages 0 and 2.
	lineA := uint64(0)
	lineB := uint64(env.Geom.Channels) * reram.BlocksPerRow
	reqA := newReq(t, env, lineA, denseLine())
	reqB := newReq(t, env, lineB, denseLine())
	auxA, _ := s.Enqueue(reqA)
	auxB, _ := s.Enqueue(reqB)
	if len(auxA) != 1 {
		t.Fatal("first page should miss")
	}
	if len(auxB) != 0 {
		t.Fatal("second page should share the metadata line (no read)")
	}
	if reqA.MetaKeys[0] != reqB.MetaKeys[0] {
		t.Fatal("pages must share the key")
	}
	if e := s.cache.find(reqA.MetaKeys[0]); e == nil || e.sharers != 2 {
		t.Fatalf("sharers = %+v, want 2", e)
	}
}

func TestLowSlotBits(t *testing.T) {
	seen := make(map[[2]int]bool)
	for q := 0; q < 4; q++ {
		for slot := 0; slot < 64; slot++ {
			b, sh := lowSlotBits(q, slot)
			if b < 0 || b >= MetaLineSize || sh > 6 || sh%2 != 0 {
				t.Fatalf("q=%d slot=%d: byte %d shift %d", q, slot, b, sh)
			}
			k := [2]int{b, int(sh)}
			if seen[k] {
				t.Fatalf("bit position collision at q=%d slot=%d", q, slot)
			}
			seen[k] = true
		}
	}
	if len(seen) != 256 {
		t.Fatalf("covered %d positions, want 256", len(seen))
	}
}

// --- spill buffer ---

func TestSpillAndRetry(t *testing.T) {
	env := testEnv(t)
	s, err := NewEstCache(env, true, DefaultMetaCacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Replace the cache with a tiny one: 1 set, 1 way.
	s.cache, err = NewMetaCache(MetaCacheConfig{SizeBytes: 64, Ways: 1, SpillSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	reqA := newReq(t, env, 0, denseLine())
	auxA, _ := s.Enqueue(reqA)
	if len(auxA) != 1 {
		t.Fatal("first request should reserve")
	}
	// Different wordline group -> different key -> conflicts in the 1-way
	// cache while reqA holds a sharer.
	reqB := newReq(t, env, reram.BlocksPerRow, denseLine())
	auxB, _ := s.Enqueue(reqB)
	if len(auxB) != 0 || !reqB.Spilled || !reqB.WaitMeta {
		t.Fatalf("second request should spill: aux=%v spilled=%v", auxB, reqB.Spilled)
	}
	if len(s.spill) != 1 {
		t.Fatalf("spill depth = %d", len(s.spill))
	}
	if n := envStats(env).SpillParks; n != 1 {
		t.Fatalf("spill parks = %d", n)
	}
	// Retry before reqA completes: still blocked.
	if aux, _ := s.RetrySpill(); len(aux) != 0 {
		t.Fatal("retry should fail while the way is held")
	}
	if len(s.spill) != 1 {
		t.Fatal("request must remain parked")
	}
	// Complete reqA: the way frees, retry succeeds.
	s.MetaArrived(auxA[0].Key)
	s.Complete(reqA, bits.Line{}, reqA.Payload)
	aux, _ := s.RetrySpill()
	if len(aux) != 1 {
		t.Fatalf("retry should issue the deferred metadata read, got %v", aux)
	}
	if len(s.spill) != 0 || reqB.Spilled {
		t.Fatal("request should leave the spill buffer")
	}
	s.MetaArrived(aux[0].Key)
	if !s.Ready(reqB) {
		t.Fatal("reqB ready after its fill")
	}
}

// --- Table 4 constants ---

func TestTable4Entries(t *testing.T) {
	if len(Table4) != 3 {
		t.Fatalf("Table4 has %d entries, want 3", len(Table4))
	}
	var area float64
	for _, m := range Table4 {
		if m.AreaMM2 <= 0 || m.PowerMW <= 0 || m.LatencyNs <= 0 {
			t.Fatalf("%s: non-positive overheads", m.Name)
		}
		area += m.AreaMM2
	}
	if area > 1 {
		t.Fatalf("total area %v mm² implausibly large", area)
	}
	if TimingTableBytes != 512 {
		t.Fatalf("timing table storage = %d, want 512", TimingTableBytes)
	}
}

// --- read-latency histogram ---

func TestReadLatencyPercentiles(t *testing.T) {
	reg := metrics.NewRegistry()
	h := NewInstruments(reg).ReadLatencyNs
	for i := 0; i < 90; i++ {
		h.Observe(30) // bucket (16,32]
	}
	for i := 0; i < 10; i++ {
		h.Observe(5000) // tail
	}
	snap := reg.Snapshot()
	s := StatsFrom(snap)
	if got := s.AvgReadLatencyNs(); got < 500 || got > 600 {
		t.Fatalf("avg = %v", got)
	}
	rd := snap.Histograms[MetricReadLatencyNs]
	p50 := rd.Quantile(0.5)
	if p50 > 64 {
		t.Fatalf("p50 = %v, want <= 64", p50)
	}
	p99 := rd.Quantile(0.99)
	if p99 < 4096 {
		t.Fatalf("p99 = %v, want >= 4096", p99)
	}
	// Degenerate inputs are clamped.
	if rd.Quantile(-1) == 0 || rd.Quantile(2) == 0 {
		t.Fatal("clamped percentiles should be positive")
	}
	empty := metrics.NewRegistry().Snapshot()
	if empty.Histograms[MetricReadLatencyNs].Quantile(0.5) != 0 || StatsFrom(empty) != (Stats{}) {
		t.Fatal("an empty registry should report 0")
	}
}

// TestNewSchemeRequiresRegistry pins that a scheme cannot be built
// without the registry that holds its traffic counts.
func TestNewSchemeRequiresRegistry(t *testing.T) {
	env := testEnv(t)
	env.Metrics = nil
	if _, err := NewScheme(SchemeHybrid, env, DefaultMetaCacheConfig()); err == nil {
		t.Fatal("NewScheme accepted an env without a metrics registry")
	}
}

// TestRegisterSchemeRejectsCaseCollision: names resolve ignoring case,
// so a second name equal to a registered one up to case would make the
// resolution ambiguous. Registering it panics, and every spelling
// resolves to the first registration.
func TestRegisterSchemeRejectsCaseCollision(t *testing.T) {
	factory := func(env *Env, _ MetaCacheConfig) (Scheme, error) { return NewBaseline(env), nil }
	if _, err := SchemeName("x-scheme"); err != nil {
		RegisterScheme("x-scheme", factory)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error(`RegisterScheme("X-SCHEME") did not panic after "x-scheme"`)
			}
		}()
		RegisterScheme("X-SCHEME", factory)
	}()
	for _, spelling := range []string{"x-scheme", "X-SCHEME", "X-Scheme"} {
		if got, err := SchemeName(spelling); err != nil || got != "x-scheme" {
			t.Errorf("SchemeName(%q) = %q, %v; want \"x-scheme\"", spelling, got, err)
		}
	}
	if _, err := SchemeName("no-such-scheme"); err == nil || !strings.Contains(err.Error(), `"no-such-scheme"`) {
		t.Errorf("SchemeName of an unknown name: err = %v, want one naming it", err)
	}
}

func TestLeveledLifetime(t *testing.T) {
	// +3% writes -> ~97.1% lifetime (paper Section 6.4).
	got := Stats{DataWrites: 1000, MetaWrites: 30}.LeveledLifetime()
	if math.Abs(got-0.9709) > 0.001 {
		t.Fatalf("relative lifetime = %v, want ≈0.971", got)
	}
	if (Stats{}).LeveledLifetime() != 1 {
		t.Fatal("zero writes should return 1")
	}
}
