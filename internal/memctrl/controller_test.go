package memctrl

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"ladder/internal/bits"
	"ladder/internal/circuit"
	"ladder/internal/core"
	"ladder/internal/energy"
	"ladder/internal/metrics"
	"ladder/internal/remap"
	"ladder/internal/reram"
	"ladder/internal/timing"
)

var (
	tablesOnce sync.Once
	testTables *timing.TableSet
	tablesErr  error
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

func testEnv(t *testing.T) *core.Env {
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
	return &core.Env{Geom: testGeometry(), Store: store, Tables: testTables, Metrics: metrics.NewRegistry()}
}

// envStats reads the env's run-level counts out of its registry.
func envStats(env *core.Env) core.Stats { return core.StatsFrom(env.Metrics.Snapshot()) }

type harness struct {
	env   *core.Env
	ctrl  *Controller
	meter *energy.Meter
	done  []*ReadReq
	now   uint64
}

func newHarness(t *testing.T, makeScheme func(*core.Env) core.Scheme) *harness {
	t.Helper()
	env := testEnv(t)
	meter, err := energy.NewMeter(energy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{env: env, meter: meter}
	ctrl, err := NewController(DefaultConfig(), env, makeScheme(env), meter, func(r *ReadReq, _ uint64) {
		h.done = append(h.done, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	h.ctrl = ctrl
	return h
}

func (h *harness) run(ticks int) {
	for i := 0; i < ticks; i++ {
		h.ctrl.Tick(h.now)
		h.now++
	}
}

func (h *harness) runUntilIdle(t *testing.T, maxTicks int) {
	t.Helper()
	for i := 0; i < maxTicks; i++ {
		if h.ctrl.Idle() {
			return
		}
		h.ctrl.Tick(h.now)
		h.now++
	}
	t.Fatalf("controller not idle after %d ticks (rdq=%d wrq=%d)", maxTicks, h.ctrl.ReadQueueLen(), h.ctrl.WriteQueueLen())
}

func baselineScheme(env *core.Env) core.Scheme { return core.NewBaseline(env) }

func estScheme(t *testing.T) func(*core.Env) core.Scheme {
	return func(env *core.Env) core.Scheme {
		s, err := core.NewEstCache(env, true, core.DefaultMetaCacheConfig())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.WriteLowEntries = 60
	if err := bad.Validate(); err == nil {
		t.Fatal("low watermark above high should be rejected")
	}
	bad = DefaultConfig()
	bad.RDQSize = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero queue should be rejected")
	}
}

func TestReadCompletesWithFixedLatency(t *testing.T) {
	h := newHarness(t, baselineScheme)
	if !h.ctrl.EnqueueRead(0, 0, h.now) {
		t.Fatal("enqueue failed")
	}
	h.runUntilIdle(t, 10_000)
	if len(h.done) != 1 {
		t.Fatalf("reads done = %d", len(h.done))
	}
	// Unloaded read latency: tRCD + tCL + tBURST = 130 ticks = 32.5 ns.
	want := 32.5
	if got := envStats(h.env).AvgReadLatencyNs(); got < want || got > want+1 {
		t.Fatalf("read latency = %v ns, want ≈%v", got, want)
	}
}

func TestBaselineWriteTakesWorstCase(t *testing.T) {
	h := newHarness(t, baselineScheme)
	if !h.ctrl.EnqueueWrite(0, bits.Line{}, h.now) {
		t.Fatal("enqueue failed")
	}
	h.runUntilIdle(t, 100_000)
	// Service = tRCD + tWR(worst) + tBURST.
	want := h.env.Tables.WorstNs + float64(DefaultConfig().TRCD+DefaultConfig().TBurst)/TicksPerNs
	got := envStats(h.env).AvgWriteServiceNs()
	if got < want-1 || got > want+1 {
		t.Fatalf("write service = %v ns, want ≈%v", got, want)
	}
}

func TestWriteAppliesFNWAndPersists(t *testing.T) {
	h := newHarness(t, baselineScheme)
	var data bits.Line
	for i := range data {
		data[i] = byte(i)
	}
	h.ctrl.EnqueueWrite(5, data, h.now)
	h.runUntilIdle(t, 100_000)
	got, err := h.ctrl.ReadLineLogical(5)
	if err != nil {
		t.Fatal(err)
	}
	if got != data {
		t.Fatal("logical read-back mismatch after FNW")
	}
	if envStats(h.env).FNWUnits == 0 {
		t.Fatal("FNW accounting missing")
	}
}

func TestFNWReducesSecondWriteChanges(t *testing.T) {
	h := newHarness(t, baselineScheme)
	var dense bits.Line
	for i := range dense {
		dense[i] = 0xff
	}
	h.ctrl.EnqueueWrite(0, dense, h.now)
	h.runUntilIdle(t, 100_000)
	first := envStats(h.env).BitChanges
	// Writing the complement: classic FNW should flip every unit and pay
	// only the flip bits.
	h.ctrl.EnqueueWrite(0, bits.Line{}, h.now)
	h.runUntilIdle(t, 100_000)
	second := envStats(h.env).BitChanges - first
	if second > bits.FNWUnits {
		t.Fatalf("second write changed %d bits; FNW should cap at %d", second, bits.FNWUnits)
	}
	if got, err := h.ctrl.ReadLineLogical(0); err != nil || got != (bits.Line{}) {
		t.Fatalf("read-back after flip: %v %v", got, err)
	}
}

func TestBankSerializesOperations(t *testing.T) {
	h := newHarness(t, baselineScheme)
	// Two reads to the same wordline group (same bank): strictly
	// serialized.
	h.ctrl.EnqueueRead(0, 0, h.now)
	h.ctrl.EnqueueRead(0, 1, h.now)
	h.runUntilIdle(t, 10_000)
	if len(h.done) != 2 {
		t.Fatalf("reads done = %d", len(h.done))
	}
	perRead := 32.5
	if got := envStats(h.env).ReadLatencyNs; got < 3*perRead-1 {
		t.Fatalf("total latency %v suggests no serialization (want ≈%v)", got, 3*perRead)
	}
}

func TestParallelBanksOverlap(t *testing.T) {
	h := newHarness(t, baselineScheme)
	// Lines 0 and 2*64: rows 0 and 2 -> same channel walk? Row stride 1
	// changes channel; use rows 0 and 2 decoded on this controller
	// regardless (the controller does not check channel).
	h.ctrl.EnqueueRead(0, 0, h.now)
	h.ctrl.EnqueueRead(0, 2*reram.BlocksPerRow, h.now)
	h.runUntilIdle(t, 10_000)
	perRead := 32.5
	got := envStats(h.env).ReadLatencyNs
	if got > 2*perRead+2 {
		t.Fatalf("total latency %v suggests serialization across distinct banks", got)
	}
}

func TestWriteDrainModeEngagesAtWatermark(t *testing.T) {
	h := newHarness(t, baselineScheme)
	cfg := DefaultConfig()
	high := int(cfg.WriteHighFrac * float64(cfg.WRQSize)) // 54
	for i := 0; i < high+1; i++ {
		// Spread across rows to use many banks.
		if !h.ctrl.EnqueueWrite(uint64(i)*reram.BlocksPerRow, bits.Line{}, h.now) {
			t.Fatalf("write %d rejected", i)
		}
	}
	h.ctrl.Tick(h.now)
	if !h.ctrl.InWriteMode() {
		t.Fatal("controller should enter write mode above the high watermark")
	}
	// Queue a read: it must not complete while heavy draining is in
	// progress and banks are saturated with worst-case writes.
	h.ctrl.EnqueueRead(0, 0, h.now)
	h.run(400) // 100 ns: less than one write service
	if len(h.done) != 0 {
		t.Fatal("demand read serviced during early drain despite busy banks")
	}
	h.runUntilIdle(t, 2_000_000)
	if len(h.done) != 1 {
		t.Fatal("read eventually completes")
	}
	if h.ctrl.InWriteMode() {
		t.Fatal("drain should end below the low watermark")
	}
}

func TestWriteQueueBackpressure(t *testing.T) {
	h := newHarness(t, baselineScheme)
	cfg := DefaultConfig()
	accepted := 0
	for i := 0; i < cfg.WRQSize+10; i++ {
		if h.ctrl.EnqueueWrite(uint64(i), bits.Line{}, h.now) {
			accepted++
		}
	}
	if accepted != cfg.WRQSize {
		t.Fatalf("accepted %d writes, want %d", accepted, cfg.WRQSize)
	}
}

func TestReadQueueBackpressure(t *testing.T) {
	h := newHarness(t, baselineScheme)
	cfg := DefaultConfig()
	accepted := 0
	for i := 0; i < cfg.RDQSize+5; i++ {
		if h.ctrl.EnqueueRead(0, uint64(i), h.now) {
			accepted++
		}
	}
	if accepted != cfg.RDQSize {
		t.Fatalf("accepted %d reads, want %d", accepted, cfg.RDQSize)
	}
}

func TestEstEndToEndThroughController(t *testing.T) {
	h := newHarness(t, estScheme(t))
	var data bits.Line
	for i := range data {
		data[i] = byte(i * 3)
	}
	if !h.ctrl.EnqueueWrite(0, data, h.now) {
		t.Fatal("enqueue failed")
	}
	h.runUntilIdle(t, 1_000_000)
	if envStats(h.env).MetaReads != 1 {
		t.Fatalf("metadata reads = %d, want 1", envStats(h.env).MetaReads)
	}
	if envStats(h.env).SMBReads != 0 {
		t.Fatal("est must not issue SMB reads")
	}
	// The stored payload is shifted; the logical read path must recover
	// the original.
	got, err := h.ctrl.ReadLineLogical(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != data {
		t.Fatal("round trip through shift+FNW failed")
	}
	// A second write to the same page hits the cached metadata line.
	if !h.ctrl.EnqueueWrite(1, data, h.now) {
		t.Fatal("enqueue failed")
	}
	h.runUntilIdle(t, 1_000_000)
	if envStats(h.env).MetaReads != 1 {
		t.Fatalf("second write should not refetch metadata (reads = %d)", envStats(h.env).MetaReads)
	}
	if envStats(h.env).MetaCacheHits == 0 {
		t.Fatal("expected metadata cache hit")
	}
}

func TestEstFasterThanBaselineOnSparseData(t *testing.T) {
	runOne := func(mk func(*core.Env) core.Scheme) float64 {
		h := newHarness(t, mk)
		var sparse bits.Line
		sparse[3] = 0x01
		for i := 0; i < 20; i++ {
			h.ctrl.EnqueueWrite(uint64(i), sparse, h.now)
			h.runUntilIdle(t, 1_000_000)
		}
		return envStats(h.env).AvgWriteServiceNs()
	}
	base := runOne(baselineScheme)
	est := runOne(estScheme(t))
	// Note: the 64×64 test crossbar exaggerates the partial-counter floor
	// (64 blocks × bound 1 saturates the content axis), so only the
	// ordering is asserted here; full-scale factor checks live in the sim
	// package tests.
	if est >= base {
		t.Fatalf("est %v ns should beat baseline %v ns on sparse data", est, base)
	}
}

func TestMetaWritebackTravelsThroughWriteQueue(t *testing.T) {
	h := newHarness(t, estScheme(t))
	// Touch many distinct pages so metadata lines churn and dirty
	// evictions occur. The test cache is the default 64 KB (1024 lines),
	// so exceed that footprint.
	var data bits.Line
	data[0] = 0xff
	pages := 1200
	for i := 0; i < pages; i++ {
		for !h.ctrl.EnqueueWrite(uint64(i)*reram.BlocksPerRow, data, h.now) {
			h.ctrl.Tick(h.now)
			h.now++
		}
		h.ctrl.Tick(h.now)
		h.now++
	}
	h.runUntilIdle(t, 20_000_000)
	if envStats(h.env).MetaWrites == 0 {
		t.Fatal("expected dirty metadata evictions")
	}
}

func TestEnergyMeterSeesTraffic(t *testing.T) {
	h := newHarness(t, baselineScheme)
	h.ctrl.EnqueueRead(0, 0, h.now)
	h.ctrl.EnqueueWrite(1, bits.Line{}, h.now)
	h.runUntilIdle(t, 100_000)
	if h.meter.Reads != 1 || h.meter.Writes != 1 {
		t.Fatalf("meter reads=%d writes=%d", h.meter.Reads, h.meter.Writes)
	}
	if h.meter.WriteNJ <= h.meter.ReadNJ {
		t.Fatal("a worst-case write should cost more than a read")
	}
}

func TestEnqueueMaintenanceOccupiesBank(t *testing.T) {
	h := newHarness(t, baselineScheme)
	loc, err := h.env.Geom.Decode(0)
	if err != nil {
		t.Fatal(err)
	}
	h.ctrl.EnqueueMaintenance(loc, h.now)
	if h.ctrl.Idle() {
		t.Fatal("maintenance write should keep the controller busy")
	}
	h.runUntilIdle(t, 100_000)
	// Maintenance writes are metered as array writes but are not data
	// writes.
	if envStats(h.env).DataWrites != 0 {
		t.Fatal("maintenance must not count as a data write")
	}
	if h.meter.Writes != 1 {
		t.Fatalf("meter writes = %d, want 1", h.meter.Writes)
	}
}

// TestDecoderGapShiftChangesTiming pins the decoder as the controller's
// single resolution point: rotating the start-gap mapping relocates the
// same logical write to a farther wordline, which a location-aware
// scheme must observe as a slower write.
func TestDecoderGapShiftChangesTiming(t *testing.T) {
	runOne := func(rotations int) float64 {
		env := testEnv(t)
		meter, err := energy.NewMeter(energy.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := NewController(DefaultConfig(), env, core.NewLocationAware(env), meter, nil)
		if err != nil {
			t.Fatal(err)
		}
		// ~64 segments so a full rotation count maps onto wordline offsets.
		segRows := int(env.Geom.Rows()) / 64
		dec, err := remap.NewDecoder(remap.Config{
			Geom:           env.Geom,
			TicksPerNs:     TicksPerNs,
			GapSegmentRows: segRows,
			GapPeriod:      1,
			SpareRows:      -1,
			PenaltyNs:      -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctrl.SetDecoder(dec)
		// One full rotation (segments+1 gap moves) advances every
		// segment's physical slot by one wordline.
		segments := int(env.Geom.Rows())/segRows + 1
		for i := 0; i < rotations*(segments+1); i++ {
			dec.RecordWrite()
		}
		ctrl.EnqueueWrite(0, bits.Line{}, 0)
		for i := uint64(0); !ctrl.Idle(); i++ {
			ctrl.Tick(i)
		}
		return envStats(env).AvgWriteServiceNs()
	}
	near := runOne(0)
	far := runOne(63)
	if far <= near {
		t.Fatalf("gap-rotated write %v ns should be slower than identity mapping %v ns", far, near)
	}
}

// TestDecoderSparePenaltyChargedAtDispatch pins the indirection-penalty
// model: an access to a spare-remapped row pays exactly the configured
// decoder latency on top of its normal service time, charged when the
// operation dispatches.
func TestDecoderSparePenaltyChargedAtDispatch(t *testing.T) {
	const penaltyNs = 10.0
	runOne := func(doRemap bool) float64 {
		h := newHarness(t, baselineScheme)
		dec, err := remap.NewDecoder(remap.Config{
			Geom:       h.env.Geom,
			TicksPerNs: TicksPerNs,
			SpareRows:  4,
			PenaltyNs:  penaltyNs,
		})
		if err != nil {
			t.Fatal(err)
		}
		dec.Instrument(h.env.Metrics)
		h.ctrl.SetDecoder(dec)
		if doRemap {
			loc, err := h.env.Geom.Decode(0)
			if err != nil {
				t.Fatal(err)
			}
			if err := dec.RemapSpare(0, h.env.Geom.GlobalRow(loc), 0); err != nil {
				t.Fatal(err)
			}
		}
		h.ctrl.EnqueueWrite(0, bits.Line{}, h.now)
		h.runUntilIdle(t, 100_000)
		if doRemap {
			if st := remap.StatsFrom(h.env.Metrics.Snapshot()); st.PenaltyTicks == 0 {
				t.Fatal("remapped write charged no penalty ticks")
			}
		}
		return envStats(h.env).AvgWriteServiceNs()
	}
	base := runOne(false)
	remapped := runOne(true)
	if diff := remapped - base; diff < penaltyNs-0.5 || diff > penaltyNs+0.5 {
		t.Fatalf("remapped write pays %v ns extra, want ≈%v ns decoder penalty", diff, penaltyNs)
	}
}

func TestReadLatencyPercentilesPopulated(t *testing.T) {
	h := newHarness(t, baselineScheme)
	for i := uint64(0); i < 8; i++ {
		h.ctrl.EnqueueRead(0, i*64, h.now)
	}
	h.runUntilIdle(t, 100_000)
	if p := h.env.Metrics.Snapshot().Histograms[core.MetricReadLatencyNs].P99; p <= 0 {
		t.Fatalf("p99 = %v", p)
	}
}

// TestControllerFuzzInvariants drives random interleavings of enqueues
// and ticks against every scheme and checks global invariants: queues
// stay bounded, the controller always drains to idle, every accepted
// write eventually persists, and read-backs decode to the written data.
func TestControllerFuzzInvariants(t *testing.T) {
	schemes := map[string]func(*core.Env) core.Scheme{
		"baseline": baselineScheme,
		"est":      estScheme(t),
		"basic": func(env *core.Env) core.Scheme {
			s, err := core.NewBasicCache(env, core.DefaultMetaCacheConfig())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"hybrid": func(env *core.Env) core.Scheme {
			s, err := core.NewHybridCache(env, core.DefaultMetaCacheConfig())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for name, mk := range schemes {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, mk)
			rng := rand.New(rand.NewSource(1234))
			expected := map[uint64]bits.Line{}
			cfg := DefaultConfig()
			lines := h.env.Geom.Lines()
			for step := 0; step < 30_000; step++ {
				switch rng.Intn(4) {
				case 0:
					line := uint64(rng.Intn(2000)) % lines
					var data bits.Line
					rng.Read(data[:])
					if h.ctrl.EnqueueWrite(line, data, h.now) {
						expected[line] = data
					}
				case 1:
					h.ctrl.EnqueueRead(0, uint64(rng.Intn(2000))%lines, h.now)
				default:
					h.ctrl.Tick(h.now)
					h.now++
				}
				if h.ctrl.ReadQueueLen() > cfg.RDQSize {
					t.Fatalf("step %d: RDQ overflow (%d)", step, h.ctrl.ReadQueueLen())
				}
				if h.ctrl.WriteQueueLen() > cfg.WRQSize {
					t.Fatalf("step %d: WRQ overflow (%d)", step, h.ctrl.WriteQueueLen())
				}
			}
			h.runUntilIdle(t, 50_000_000)
			for line, want := range expected {
				got, err := h.ctrl.ReadLineLogical(line)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("line %d: read-back mismatch after fuzz", line)
				}
			}
			// The incremental LRS counters must still agree with a recount.
			if h.env.Store.RowCounters(0) != h.env.Store.RecountRow(0) {
				t.Fatal("row counters diverged from recount after fuzz")
			}
		})
	}
}

// TestEnqueueRejectsOutOfRangeLine: the controller's enqueue is where a
// line address is decoded, so an address past capacity is turned away
// there, before it reaches a queue, a traffic counter or the store.
func TestEnqueueRejectsOutOfRangeLine(t *testing.T) {
	schemes := map[string]func(*core.Env) core.Scheme{
		"baseline":     baselineScheme,
		"LADDER-Est":   estScheme(t),
		"LADDER-Basic": basicScheme(t),
	}
	for name, scheme := range schemes {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, scheme)
			// Serve some valid traffic first, so the counters and the
			// store hold state the rejects could disturb.
			if !h.ctrl.EnqueueWrite(3, bits.Line{1}, h.now) || !h.ctrl.EnqueueRead(0, 70, h.now) {
				t.Fatal("valid enqueue refused")
			}
			h.runUntilIdle(t, 1_000_000)
			traffic := func() map[string]uint64 {
				out := map[string]uint64{}
				for k, v := range h.env.Metrics.Snapshot().Counters {
					if strings.HasPrefix(k, "core.traffic.") {
						out[k] = v
					}
				}
				return out
			}
			rdq, wrq, counts, touched := h.ctrl.ReadQueueLen(), h.ctrl.WriteQueueLen(), traffic(), h.env.Store.TouchedRows()
			bad := h.env.Geom.Lines()
			if h.ctrl.EnqueueWrite(bad, bits.Line{0xff}, h.now) {
				t.Fatal("EnqueueWrite accepted a line past capacity")
			}
			if h.ctrl.EnqueueRead(0, bad, h.now) {
				t.Fatal("EnqueueRead accepted a line past capacity")
			}
			if h.ctrl.ReadQueueLen() != rdq || h.ctrl.WriteQueueLen() != wrq || !h.ctrl.Idle() {
				t.Fatal("a rejected request reached a queue")
			}
			h.run(1000)
			if got := traffic(); !reflect.DeepEqual(got, counts) {
				t.Fatalf("traffic counters moved: %v -> %v", counts, got)
			}
			if got := h.env.Store.TouchedRows(); got != touched {
				t.Fatalf("touched rows %d -> %d", touched, got)
			}
		})
	}
}

// TestNewControllerRequiresRegistry pins that a controller cannot be
// built without the registry that holds its traffic counts.
func TestNewControllerRequiresRegistry(t *testing.T) {
	env := testEnv(t)
	scheme := core.NewBaseline(env)
	env.Metrics = nil
	if _, err := NewController(DefaultConfig(), env, scheme, nil, nil); err == nil {
		t.Fatal("NewController accepted an env without a metrics registry")
	}
}

// TestNewControllerRejectsTooManyBanks pins the bank-mask width: a
// channel with more banks than a uint64 has bits cannot be scheduled,
// and NewController says so instead of aliasing banks.
func TestNewControllerRejectsTooManyBanks(t *testing.T) {
	env := testEnv(t)
	meter, err := energy.NewMeter(energy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	env.Geom.RanksPerChannel, env.Geom.BanksPerRank = 8, 16
	if _, err := NewController(DefaultConfig(), env, core.NewBaseline(env), meter, nil); err == nil ||
		!strings.Contains(err.Error(), "128 banks") {
		t.Fatalf("NewController with 128 banks per channel: err = %v, want a bank-mask error", err)
	}
	env.Geom.RanksPerChannel = 4
	if _, err := NewController(DefaultConfig(), env, core.NewBaseline(env), meter, nil); err != nil {
		t.Fatalf("NewController with 64 banks per channel: %v", err)
	}
}

// TestResetLatencyBoundsStayFixed instruments a controller, runs it,
// snapshots its registry and overwrites the snapshot's bounds: the one
// bound slice every RESET-latency histogram shares must still hold the
// bounds it was built with.
func TestResetLatencyBoundsStayFixed(t *testing.T) {
	h := newHarness(t, func(env *core.Env) core.Scheme { return core.NewBaseline(env) })
	h.ctrl.Instrument(0)
	for i := uint64(0); i < 32; i++ {
		h.ctrl.EnqueueWrite(i*reram.BlocksPerRow, bits.Line{byte(i)}, h.now)
	}
	h.runUntilIdle(t, 1_000_000)
	for _, hist := range h.env.Metrics.Snapshot().Histograms {
		for i := range hist.Bounds {
			hist.Bounds[i] = -1
		}
	}
	if got, want := ResetLatencyBounds(), metrics.LinearBounds(32, 32, 21); !slices.Equal(got, want) {
		t.Fatalf("RESET-latency bounds changed to %v", got)
	}
}
