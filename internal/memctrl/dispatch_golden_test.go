package memctrl_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"ladder/internal/bits"
	"ladder/internal/circuit"
	"ladder/internal/core"
	"ladder/internal/energy"
	"ladder/internal/fault"
	"ladder/internal/memctrl"
	"ladder/internal/metrics"
	"ladder/internal/remap"
	"ladder/internal/reram"
	"ladder/internal/sim"
	"ladder/internal/timing"
	"ladder/internal/tracing"
)

var updateDispatch = flag.Bool("update", false, "rewrite testdata/dispatch.golden from the current controller")

const dispatchGolden = "testdata/dispatch.golden"

var (
	goldenTablesOnce sync.Once
	goldenTables     *timing.TableSet
	goldenTablesErr  error
)

// goldenGeometry is a small memory (16 banks per channel, 64-row mats)
// whose timing tables generate in milliseconds.
func goldenGeometry() reram.Geometry {
	return reram.Geometry{
		Channels:         2,
		RanksPerChannel:  2,
		BanksPerRank:     8,
		MatGroupsPerBank: 4,
		MatRows:          64,
	}
}

// eventLog digests one case's event stream and counts its kinds.
type eventLog struct {
	h      hash.Hash
	counts map[string]int
	now    uint64
}

func newEventLog() *eventLog { return &eventLog{h: sha256.New(), counts: map[string]int{}} }

// add records one event line under a kind.
func (l *eventLog) add(kind, format string, args ...any) {
	l.counts[kind]++
	fmt.Fprintf(l.h, "%s %d "+format+"\n", append([]any{kind, l.now}, args...)...)
}

// recScheme logs every scheme call the controller makes, in call order,
// stamped with the tick the driver is processing: Ready verdicts pin the
// dispatch walk, Latency the write dispatch order, Complete, SMBArrived
// and MetaArrived the completion order.
type recScheme struct {
	core.Scheme
	log *eventLog
}

func (s *recScheme) Enqueue(req *core.WriteRequest) ([]core.AuxRead, []core.MetaWriteback) {
	aux, wbs := s.Scheme.Enqueue(req)
	s.log.add("enqueue", "%d %d %d", req.Line, len(aux), len(wbs))
	return aux, wbs
}

func (s *recScheme) SMBArrived(req *core.WriteRequest, stale bits.Line) {
	s.log.add("smb", "%d", req.Line)
	s.Scheme.SMBArrived(req, stale)
}

func (s *recScheme) MetaArrived(key uint64) {
	s.log.add("meta", "%d", key)
	s.Scheme.MetaArrived(key)
}

func (s *recScheme) RetrySpill() ([]core.AuxRead, []core.MetaWriteback) {
	aux, wbs := s.Scheme.RetrySpill()
	s.log.add("spill", "%d %d", len(aux), len(wbs))
	return aux, wbs
}

func (s *recScheme) Ready(req *core.WriteRequest) bool {
	ok := s.Scheme.Ready(req)
	s.log.add("ready", "%d %v", req.Line, ok)
	return ok
}

func (s *recScheme) Latency(req *core.WriteRequest) float64 {
	lat := s.Scheme.Latency(req)
	s.log.add("latency", "%d %v", req.Line, lat)
	return lat
}

func (s *recScheme) Complete(req *core.WriteRequest, old, stored bits.Line) []core.MetaWriteback {
	wbs := s.Scheme.Complete(req, old, stored)
	s.log.add("complete", "%d %d", req.Line, len(wbs))
	return wbs
}

// WriteRetry forwards the reissue hook to schemes that take it; the
// controller calls it only through the core.RetryAware assertion.
func (s *recScheme) WriteRetry(req *core.WriteRequest, attempt int) {
	s.log.add("retry", "%d %d", req.Line, attempt)
	if ra, ok := s.Scheme.(core.RetryAware); ok {
		ra.WriteRetry(req, attempt)
	}
}

// dispatchCase drives one controller over seeded random traffic and
// returns its golden line: event counts and the digest of every scheme
// call, every delivered read and every span's dispatch and completion.
func dispatchCase(t *testing.T, scheme string, faulty bool, cache core.MetaCacheConfig) string {
	t.Helper()
	name := scheme
	if faulty {
		name += "+faults+wl"
	}
	goldenTablesOnce.Do(func() {
		p := circuit.DefaultParams()
		p.N = 64
		goldenTables, goldenTablesErr = timing.NewTableSet(p)
	})
	if goldenTablesErr != nil {
		t.Fatal(goldenTablesErr)
	}
	geom := goldenGeometry()
	store, err := reram.NewStore(geom)
	if err != nil {
		t.Fatal(err)
	}
	store.SetColumnTracking(scheme == sim.SchemeBLP)
	store.SetResident(2, 5)
	env := &core.Env{Geom: geom, Store: store, Tables: goldenTables, Metrics: metrics.NewRegistry()}
	inner, err := core.NewScheme(scheme, env, cache)
	if err != nil {
		t.Fatal(err)
	}
	log := newEventLog()
	meter, err := energy.NewMeter(energy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := memctrl.NewController(memctrl.DefaultConfig(), env, &recScheme{Scheme: inner, log: log}, meter,
		func(r *memctrl.ReadReq, now uint64) { log.add("read", "%d %d %d", r.Core, r.Line, now) })
	if err != nil {
		t.Fatal(err)
	}
	var dec *remap.Decoder
	if faulty {
		inj, err := fault.NewInjector(fault.Config{Rate: 0.05, Seed: 11, RetryMax: fault.UseDefault})
		if err != nil {
			t.Fatal(err)
		}
		dec, err = remap.NewDecoder(remap.Config{
			Geom:           geom,
			TicksPerNs:     memctrl.TicksPerNs,
			GapSegmentRows: 16,
			GapPeriod:      8,
			SpareRows:      64,
			PenaltyNs:      -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		inj.Instrument(env.Metrics)
		dec.Instrument(env.Metrics)
		ctrl.SetFaults(inj)
		ctrl.SetDecoder(dec)
	}
	ctrl.Instrument(0)
	tr := tracing.NewCollector(tracing.Config{SampleEvery: 1, Capacity: 1 << 16})
	ctrl.Trace(tr, 0)

	rng := rand.New(rand.NewSource(int64(len(scheme)) * 31))
	lines := geom.Lines()
	var (
		now                            uint64
		wantWrite, wantRead            bool
		wLine, rLine                   uint64
		wData                          bits.Line
		refusedW, refusedR, drainExits int
		maintenance                    int
		inDrain                        bool
		pickLine                       = func() uint64 { return uint64(rng.Int63n(int64(lines))) }
	)
	// A hot set of lines makes writes to one line meet in the queue and
	// keeps the metadata working set small enough to hit as well as miss.
	hot := make([]uint64, 96)
	for i := range hot {
		hot[i] = pickLine()
	}
	tick := func() {
		log.now = now
		ctrl.Tick(now)
		if inDrain && !ctrl.InWriteMode() {
			drainExits++
		}
		inDrain = ctrl.InWriteMode()
		now++
	}
	for step := 0; step < 100_000; step++ {
		log.now = now
		// Alternate bursts that fill both queues with sparse stretches
		// long enough to drain the write queue; reads keep arriving.
		burst := step%25_000 < 1_000
		pw, pr := 2000, 100
		if burst {
			pw, pr = 3, 3
		}
		if !wantWrite && rng.Intn(pw) == 0 {
			wantWrite = true
			wLine = pickLine()
			if rng.Intn(4) == 0 {
				wLine = hot[rng.Intn(len(hot))]
			}
			rng.Read(wData[:])
		}
		if wantWrite {
			if ctrl.EnqueueWrite(wLine, wData, now) {
				wantWrite = false
				if dec.RecordWrite() {
					loc, _ := geom.Decode(wLine)
					ctrl.EnqueueMaintenance(loc, now)
					maintenance++
				}
			} else {
				refusedW++
			}
		}
		if !wantRead && rng.Intn(pr) == 0 {
			wantRead, rLine = true, pickLine()
		}
		if wantRead {
			if ctrl.EnqueueRead(rng.Intn(4), rLine, now) {
				wantRead = false
			} else {
				refusedR++
			}
		}
		tick()
	}
	for i := 0; !ctrl.Idle(); i++ {
		if i > 10_000_000 {
			t.Fatalf("%s: controller did not drain (rdq=%d wrq=%d)", name, ctrl.ReadQueueLen(), ctrl.WriteQueueLen())
		}
		tick()
	}
	if err := ctrl.Err(); err != nil {
		t.Fatal(err)
	}
	if tr.Evicted() != 0 {
		t.Fatalf("span ring evicted %d spans; raise its capacity", tr.Evicted())
	}

	// Spans give every transaction's dispatch and completion; within a
	// tick, completions (which run first) precede dispatches, each in
	// span order.
	type spanEvent struct {
		tick     uint64
		complete bool
		s        tracing.Span
	}
	var evs []spanEvent
	for _, s := range tr.Spans() {
		evs = append(evs, spanEvent{s.Dispatch, false, s}, spanEvent{s.Complete, true, s})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.tick != b.tick {
			return a.tick < b.tick
		}
		if a.complete != b.complete {
			return a.complete
		}
		return a.s.ID < b.s.ID
	})
	for _, e := range evs {
		log.now = e.tick
		if e.complete {
			log.add("done", "%s %d %d", e.s.Kind, e.s.Line, e.s.Bank)
		} else {
			log.add("dispatch", "%s %d %d %v", e.s.Kind, e.s.Line, e.s.Bank, e.s.LatNs)
		}
	}

	st := core.StatsFrom(env.Metrics.Snapshot())
	drains := env.Metrics.Snapshot().Counters["memctrl.ch0.drain_entries"]
	retries := uint64(0)
	if faulty {
		retries = fault.StatsFrom(env.Metrics.Snapshot()).Retries
	}
	// Coverage: every case saturates both queues and enters and leaves
	// drain mode; the LADDER schemes read metadata, Est and Hybrid write
	// it back and Basic reads SMBs; the faulty cases reissue and migrate.
	switch {
	case refusedW == 0 || refusedR == 0:
		t.Fatalf("%s: no backpressure: %d writes and %d reads refused", name, refusedW, refusedR)
	case drains < 2 || drainExits < 2:
		t.Fatalf("%s: drain mode entered %d and left %d times", name, drains, drainExits)
	case strings.HasPrefix(scheme, "LADDER") && st.MetaReads == 0:
		t.Fatalf("%s: no metadata reads", name)
	case scheme == sim.SchemeBasic && st.SMBReads == 0:
		t.Fatalf("%s: no SMB reads", name)
	case scheme != sim.SchemeBasic && strings.HasPrefix(scheme, "LADDER") && st.MetaWrites == 0:
		t.Fatalf("%s: no metadata writebacks", name)
	case faulty && (retries == 0 || maintenance == 0):
		t.Fatalf("%s: %d verify reissues, %d maintenance writes", name, retries, maintenance)
	}
	kinds := make([]string, 0, len(log.counts))
	for k := range log.counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	fmt.Fprintf(&b, "%s ticks=%d refusedW=%d refusedR=%d drains=%d", name, now, refusedW, refusedR, drains)
	for _, k := range kinds {
		fmt.Fprintf(&b, " %s=%d", k, log.counts[k])
	}
	fmt.Fprintf(&b, " sha256=%x", log.h.Sum(nil)[:12])
	return b.String()
}

// goldenCache is the metadata cache each scheme's golden case runs
// with. A 4 KB cache makes Est and Hybrid evict dirty metadata.
// LADDER-Basic gets 64 KB in 16 ways, the setting its golden line was
// recorded with (ROADMAP item 10).
func goldenCache(scheme string) core.MetaCacheConfig {
	if scheme == sim.SchemeBasic {
		return core.MetaCacheConfig{SizeBytes: 64 << 10, Ways: 16, SpillSize: 16}
	}
	return core.MetaCacheConfig{SizeBytes: 4 << 10, Ways: 4, SpillSize: 16}
}

// TestBasicPaperCacheDrains runs LADDER-Basic with the paper's 64 KB
// 4-way metadata cache over the golden cases' traffic. Its two-key
// acquisitions spill half-reserved; the spill rollback once dropped the
// fill reads of the ways it had reserved, and a later write hitting one
// of them waited forever, so the controller never drained.
func TestBasicPaperCacheDrains(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		dispatchCase(t, sim.SchemeBasic, faulty, core.DefaultMetaCacheConfig())
	}
}

// TestDispatchGolden pins the controller's schedule: for each figure
// scheme, with and without fault injection and the wear-leveling
// decoder, seeded traffic that saturates both queues (backpressure,
// drain entry and exit, metadata fills and writebacks, SMB reads, verify
// reissues) must reproduce every scheme call, delivered read, dispatch
// and completion, at the same tick and in the same order.
// Regenerate with `go test ./internal/memctrl -run TestDispatchGolden
// -update` only for an intended change of schedule.
func TestDispatchGolden(t *testing.T) {
	var got []string
	for _, scheme := range sim.FigureSchemes() {
		for _, faulty := range []bool{false, true} {
			got = append(got, dispatchCase(t, scheme, faulty, goldenCache(scheme)))
		}
	}
	if *updateDispatch {
		if err := os.WriteFile(dispatchGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(dispatchGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, run produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("schedule diverged:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
