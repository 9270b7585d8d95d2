package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ladder/internal/bits"
	"ladder/internal/core"
	"ladder/internal/reram"
	"ladder/internal/trace"
)

// The eager shadow registers LADDER-Hybrid under shadowScheme, and
// Hybrid's layout without intra-line shifting under shadowNoShift: the
// shift spreads resident hot bytes until nearly every low-precision
// code of a resident row is 0, while unshifted resident rows carry
// dense bytes, so deferred quarters there hold codes a wrong fill-in
// would change.
const (
	shadowScheme  = "test-hybrid-eager-shadow"
	shadowNoShift = "test-hybrid-noshift-eager-shadow"
)

// eagerShadow holds, for one run, what LADDER-Hybrid's low-precision
// metadata lines would hold if every synthesis (a first fill, a verify
// retry) read all four covered wordline groups at once, as Hybrid did
// before it deferred the groups its store does not hold. It mirrors
// every write the run's store takes into a store of its own over the
// same resident content, synthesizes lines from that store eagerly, and
// applies each completed write's counters as Hybrid does, so that every
// quarter Hybrid reads can be checked against it.
type eagerShadow struct {
	geom   reram.Geometry
	layout core.Layout
	// main is the run's store; mirror takes every write main takes.
	main, mirror *reram.Store
	// lines holds each low-precision key's eager content, from the key's
	// first fill on.
	lines map[uint64]core.MetaLine
	// deferred holds, per key, the quarters whose row main did not hold
	// at the key's last synthesis and that no check has read since;
	// crashCleared, those a crash found deferred and no check has read
	// since.
	deferred, crashCleared map[uint64]uint8
	crashed                bool
	// checked counts the quarters compared; deferredReads counts first
	// reads of deferred quarters, nonzeroReads those whose eager codes
	// are not all 0, crashReads first reads of quarters a crash found
	// deferred; retries counts verify retries that re-synthesized a line.
	checked, deferredReads, nonzeroReads, crashReads, retries int
	err                                                       error
}

var (
	shadowMu   sync.Mutex
	shadowNext *eagerShadow // the shadow the next run's channels attach to, nil when none is armed
)

// shadowHybrid is LADDER-Hybrid with an eager shadow checking each
// low-precision quarter it reads.
type shadowHybrid struct {
	*core.Hybrid
	sh *eagerShadow
}

func registerShadowSchemes() {
	if _, err := core.SchemeName(shadowScheme); err == nil {
		return
	}
	register := func(name string, build func(*core.Env, core.MetaCacheConfig) (*core.Hybrid, error)) {
		core.RegisterScheme(name, func(env *core.Env, cache core.MetaCacheConfig) (core.Scheme, error) {
			h, err := build(env, cache)
			if err != nil {
				return nil, err
			}
			shadowMu.Lock()
			defer shadowMu.Unlock()
			sh := shadowNext
			switch {
			case sh == nil || sh.main != nil && sh.main != env.Store:
				// No shadow armed for this run (a test running every
				// registered scheme): the plain scheme.
				return h, nil
			case sh.main == nil:
				sh.main, sh.geom, sh.layout = env.Store, env.Geom, core.NewLayout(env.Geom)
			}
			return &shadowHybrid{Hybrid: h, sh: sh}, nil
		})
	}
	register(shadowScheme, core.NewHybridCache)
	register(shadowNoShift, func(env *core.Env, cache core.MetaCacheConfig) (*core.Hybrid, error) {
		h, err := core.NewEstCache(env, false, cache)
		if err == nil {
			h.SetLowPrecisionRows(core.DefaultLowPrecisionRows)
		}
		return h, err
	})
}

// lowKey reports whether a metadata key is in the low-precision space.
func lowKey(key uint64) bool { return key&(1<<62) != 0 }

// setLowCounter packs a block's 1-bit counter pair into quarter q of a
// low-precision line.
func setLowCounter(ml *core.MetaLine, q, slot int, c uint8) {
	bit := q*128 + slot*2
	ml[bit/8] = ml[bit/8]&^(3<<(bit%8)) | (c&3)<<(bit%8)
}

// synthesize returns the line eager synthesis gives key now, noting
// the quarters Hybrid may defer.
func (sh *eagerShadow) synthesize(key uint64) core.MetaLine {
	var ml core.MetaLine
	var deferred uint8
	for q, base := range sh.layout.LowGroupLines(key) {
		loc, err := sh.geom.Decode(base)
		if err != nil {
			continue
		}
		row := sh.geom.GlobalRow(loc)
		if !sh.main.Holds(row) {
			deferred |= 1 << q
		}
		for slot, c := range sh.mirror.RowCodes(row, true) {
			setLowCounter(&ml, q, slot, c)
		}
	}
	sh.deferred[key] = deferred
	return ml
}

// check compares the quarter of req's line Hybrid holds with the shadow's.
func (sh *eagerShadow) check(req *core.WriteRequest, line *core.MetaLine, when string) {
	key := req.MetaKeys[0]
	if line == nil || !lowKey(key) || sh.err != nil {
		return
	}
	want, ok := sh.lines[key]
	if !ok {
		sh.err = fmt.Errorf("%s of line %d: key %#x was never synthesized", when, req.Line, key)
		return
	}
	q := sh.layout.LowGroupIndex(req.Line)
	if sh.crashCleared[key]&(1<<q) != 0 {
		sh.crashCleared[key] &^= 1 << q
		sh.crashReads++
	}
	if sh.deferred[key]&(1<<q) != 0 {
		sh.deferred[key] &^= 1 << q
		sh.deferredReads++
		if string(want[16*q:16*q+16]) != string(make([]byte, 16)) {
			sh.nonzeroReads++
		}
	}
	if got := line[16*q : 16*q+16]; string(got) != string(want[16*q:16*q+16]) {
		sh.err = fmt.Errorf("%s of line %d: quarter %d of key %#x is %x, eager synthesis %x", when, req.Line, q, key, got, want[16*q:16*q+16])
	}
	sh.checked++
}

// MetaArrived records the eager content of a first fill.
func (s *shadowHybrid) MetaArrived(key uint64) {
	_, seen := s.sh.lines[key]
	synth := lowKey(key) && !seen
	var eager core.MetaLine
	switch {
	case synth && s.sh.crashed:
		for i := range eager {
			eager[i] = 0xff
		}
	case synth:
		eager = s.sh.synthesize(key)
	}
	s.Hybrid.MetaArrived(key)
	if synth && s.Cache().Data(key) != nil {
		s.sh.lines[key] = eager
	}
}

// Latency checks the quarter the estimate read.
func (s *shadowHybrid) Latency(req *core.WriteRequest) float64 {
	lat := s.Hybrid.Latency(req)
	s.sh.check(req, s.Cache().Data(req.MetaKeys[0]), "estimate")
	return lat
}

// Complete mirrors the write, applies the block's counters to the
// shadow line and checks the quarter Hybrid updated.
func (s *shadowHybrid) Complete(req *core.WriteRequest, old, stored bits.Line) []core.MetaWriteback {
	s.sh.mirror.WriteAt(req.Loc, stored)
	key := req.MetaKeys[0]
	present := s.Cache().Data(key) != nil
	wbs := s.Hybrid.Complete(req, old, stored)
	if present && lowKey(key) {
		if ml, ok := s.sh.lines[key]; ok {
			setLowCounter(&ml, s.sh.layout.LowGroupIndex(req.Line), req.Loc.Slot, req.Partial)
			s.sh.lines[key] = ml
		}
		s.sh.check(req, s.Cache().Data(key), "completion")
	}
	return wbs
}

// WriteRetry records the eager re-synthesis.
func (s *shadowHybrid) WriteRetry(req *core.WriteRequest, attempt int) {
	if key := req.MetaKeys[0]; lowKey(key) && s.Cache().Data(key) != nil {
		s.sh.lines[key] = s.sh.synthesize(key)
		s.sh.retries++
	}
	s.Hybrid.WriteRetry(req, attempt)
}

// CrashRecover saturates every shadow line, as the conservative
// correction does.
func (s *shadowHybrid) CrashRecover() {
	s.Hybrid.CrashRecover()
	for key, ml := range s.sh.lines {
		for i := range ml {
			ml[i] = 0xff
		}
		s.sh.lines[key] = ml
	}
	for key, q := range s.sh.deferred {
		s.sh.crashCleared[key] |= q
	}
	clear(s.sh.deferred)
	s.sh.crashed = true
}

// TestHybridDeferredQuartersMatchEager runs LADDER-Hybrid cells, and
// cells of Hybrid's layout without shifting, under the eager shadow:
// fault-free, with 5% faults and wear leveling at a 16-write gap period,
// with a crash, and with a metadata cache small enough to evict and
// refill lines often. Every low-precision quarter the scheme reads or
// updates must hold what eager synthesis would; the unshifted cells
// must read deferred quarters whose codes are not all 0, so that a
// wrong fill-in shows; and a shadowed LADDER-Hybrid run must equal the
// plain one.
func TestHybridDeferredQuartersMatchEager(t *testing.T) {
	registerShadowSchemes()
	base := Config{InstrPerCore: 200_000, Seed: 3000, ResidentLevel: 1}
	cases := map[string]func(*Config){
		"fault-free": func(*Config) {},
		"faults+wear": func(c *Config) {
			c.FaultRate, c.WearLeveling, c.VWLPeriod = 0.05, true, 16
		},
		// Late enough that lines deferred before it are read after it.
		"crash": func(c *Config) {
			profiles, err := trace.MixProfiles(c.Workload)
			if err != nil {
				t.Fatal(err)
			}
			c.CrashAtInstr = uint64(len(profiles)) * c.InstrPerCore * 3 / 4
		},
		"small-cache": func(c *Config) {
			c.MetaCache = core.MetaCacheConfig{SizeBytes: 4 << 10, Ways: 4, SpillSize: 16}
		},
	}
	for _, scheme := range []string{shadowScheme, shadowNoShift} {
		for _, name := range []string{"fault-free", "faults+wear", "crash", "small-cache"} {
			for _, w := range []string{"lbm", "mix-3"} {
				t.Run(scheme+"/"+name+"/"+w, func(t *testing.T) {
					cfg := base
					cfg.Workload, cfg.Scheme = w, scheme
					cases[name](&cfg)
					sh := newEagerShadow(t, cfg, scheme == shadowScheme)
					shadowed, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if sh.err != nil {
						t.Fatal(sh.err)
					}
					t.Logf("%d quarters checked, %d read deferred (%d nonzero), %d read after a crash cleared them, %d retry syntheses",
						sh.checked, sh.deferredReads, sh.nonzeroReads, sh.crashReads, sh.retries)
					if sh.deferredReads+sh.crashReads == 0 || scheme == shadowNoShift && sh.nonzeroReads+sh.crashReads == 0 {
						t.Fatal("the run read no deferred quarter whose fill-in could go wrong")
					}
					if (cfg.FaultRate > 0) != (sh.retries > 0) || (cfg.CrashAtInstr > 0) != sh.crashed {
						t.Fatalf("%d retries re-synthesized a line, crashed %v: the case missed its path", sh.retries, sh.crashed)
					}
					if scheme != shadowScheme {
						return
					}
					cfg.Scheme = SchemeHybrid
					plain, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if shadowed.Ticks != plain.Ticks || shadowed.Stats != plain.Stats {
						t.Fatalf("the shadowed run diverged from LADDER-Hybrid: ticks %d vs %d", shadowed.Ticks, plain.Ticks)
					}
				})
			}
		}
	}
}

// newEagerShadow returns the shadow the next run's channels attach to,
// its mirror store over the run's resident content and stored form.
func newEagerShadow(t *testing.T, cfg Config, shifted bool) *eagerShadow {
	mirror, err := reram.NewStore(reram.DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mirror.Recycle)
	if shifted {
		mirror.UseShiftedDatapath()
	}
	mirror.SetColumnTracking(false)
	k := cfg.residentKey()
	mirror.UseResident(reram.NewResident(k.level, k.seed))
	sh := &eagerShadow{mirror: mirror, lines: map[uint64]core.MetaLine{}, deferred: map[uint64]uint8{}, crashCleared: map[uint64]uint8{}}
	arm := func(sh *eagerShadow) {
		shadowMu.Lock()
		shadowNext = sh
		shadowMu.Unlock()
	}
	arm(sh)
	t.Cleanup(func() { arm(nil) })
	return sh
}

// residentImages returns how many raw and shifted row images the
// registry's Resident of seed (at the default level) retains. It counts
// the Resident's image map by reflection, since no program code needs
// the count.
func residentImages(t *testing.T, seed int64) (raw, shifted int) {
	t.Helper()
	cfg := Config{Seed: seed, ResidentLevel: 2}
	sharedInputs.mu.Lock()
	rows := sharedInputs.rows[cfg.residentKey()]
	sharedInputs.mu.Unlock()
	if rows == nil {
		t.Fatalf("the registry kept no Resident of seed %d", seed)
	}
	images := reflect.ValueOf(rows.rows).Elem().FieldByName("images")
	if images.Kind() != reflect.Map {
		t.Fatal("reram.Resident has no image map to count")
	}
	for _, k := range images.MapKeys() {
		if k.FieldByName("shifted").Bool() {
			shifted++
		} else {
			raw++
		}
	}
	return raw, shifted
}

// TestRunsImageOnlyWrittenRows checks that a run images only the rows
// it writes: a cold LADDER-Hybrid run of each workload leaves exactly
// one raw and one shifted image per row it wrote, though its
// low-precision lines cover rows it never writes. A grid's cells each
// image only their written rows, so the 16×7 figure grid at 40k
// instructions per core images the union of its cells' written rows,
// whose size is pinned for the seed.
func TestRunsImageOnlyWrittenRows(t *testing.T) {
	defer DropResidents()
	const seed = 4242
	for _, w := range trace.AllWorkloads() {
		DropResidents()
		res, err := Run(Config{Workload: w, Scheme: SchemeHybrid, InstrPerCore: 40_000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if raw, shifted := residentImages(t, seed); raw != res.TouchedRows || shifted != raw {
			t.Errorf("%s: %d raw and %d shifted images for %d written rows", w, raw, shifted, res.TouchedRows)
		}
	}
	DropResidents()
	if _, err := RunGrid(Options{Instr: 40_000, Seed: seed, Jobs: 2}, FigureSchemes()); err != nil {
		t.Fatal(err)
	}
	raw, shifted := residentImages(t, seed)
	t.Logf("figure grid, seed %d: %d raw and %d shifted images", seed, raw, shifted)
	if want := 307; raw != want || shifted != want {
		t.Errorf("the figure grid built %d raw and %d shifted images, want %d of each", raw, shifted, want)
	}
}
