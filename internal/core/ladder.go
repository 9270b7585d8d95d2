package core

import (
	"ladder/internal/bits"
	"ladder/internal/metrics"
)

// ladderBase carries the machinery shared by the LADDER schemes (Basic,
// and Hybrid, which also serves Est): the metadata cache, the spill
// buffer, and the bookkeeping that connects write queue entries to
// in-flight metadata fills.
type ladderBase struct {
	env    *Env
	layout Layout
	cache  *MetaCache
	// waiting maps a metadata key to the requests blocked on its fill.
	waiting map[uint64][]*WriteRequest
	// spill holds requests whose metadata set had no evictable way, in
	// FIFO order (paper: 16-entry spill buffer, drained when the
	// scheduler switches modes).
	spill []*WriteRequest
	// auxScratch/wbScratch back acquire's return slices. The controller
	// consumes both synchronously (it routes aux reads and writebacks
	// before the next Enqueue/RetrySpill), so one buffer per scheme keeps
	// the steady-state enqueue path allocation-free.
	auxScratch []AuxRead
	wbScratch  []MetaWriteback
	run        Instruments // run-level counts, shared by every channel
	// Estimator-accuracy instruments (nil when the run is not
	// instrumented): whether the scheme's C^w_lrs at dispatch over-,
	// under- or exactly predicted the accurate counter. Over-predictions
	// cost latency margin; under-predictions would risk an incomplete
	// RESET on real hardware and measure the shifted-layout effect the
	// paper discusses around Figure 15b.
	mOverPredict, mUnderPredict, mExactPredict *metrics.Counter
}

func newLadderBase(env *Env, cacheCfg MetaCacheConfig) (*ladderBase, error) {
	cache, err := NewMetaCache(cacheCfg)
	if err != nil {
		return nil, err
	}
	return &ladderBase{
		env:     env,
		layout:  NewLayout(env.Geom),
		cache:   cache,
		waiting: make(map[uint64][]*WriteRequest),
		run:     NewInstruments(env.Metrics),
		// A nil env.Metrics hands out nil counters, whose Inc() no-ops.
		mOverPredict:  env.Metrics.Counter("core.est.over_predictions"),
		mUnderPredict: env.Metrics.Counter("core.est.under_predictions"),
		mExactPredict: env.Metrics.Counter("core.est.exact_predictions"),
	}, nil
}

// acquire secures all metadata lines for req: cache hits gain a sharer,
// misses reserve a way and emit a metadata read, and saturated sets park
// the request in the spill buffer (releasing any sharers it already
// took, so spill retry re-runs the full acquisition, but still emitting
// the reads of the ways it reserved).
func (b *ladderBase) acquire(req *WriteRequest, keys []uint64) ([]AuxRead, []MetaWriteback) {
	req.MetaKeys = keys
	req.MetaPending = 0
	req.WaitMeta = false
	aux := b.auxScratch[:0]
	wbs := b.wbScratch[:0]
	for i, key := range keys {
		present, valid := b.cache.Lookup(key)
		if present {
			b.cache.AddSharer(key)
			if !valid {
				// Fill already in flight for another request.
				b.waiting[key] = append(b.waiting[key], req)
				req.MetaPending++
			}
			continue
		}
		loc := b.layout.MetaLoc(key, req.Loc)
		wb, ok := b.cache.Reserve(key, loc)
		if !ok {
			// Roll back and spill: every key before this one gained a
			// sharer (hit or successful reserve); the request retries
			// atomically later. The ways this call reserved stay
			// filling, so their reads still go out: a later request
			// that hits one waits on its fill.
			for _, h := range keys[:i] {
				b.cache.Release(h)
			}
			b.unwait(req, keys[:i])
			req.MetaPending = 0
			req.Spilled = true
			req.WaitMeta = true
			b.spill = append(b.spill, req)
			b.run.SpillParks.Inc()
			b.auxScratch = aux
			b.wbScratch = wbs
			return aux, wbs
		}
		if wb != nil {
			wbs = append(wbs, *wb)
			b.run.MetaWrites.Inc()
		}
		b.waiting[key] = append(b.waiting[key], req)
		req.MetaPending++
		b.run.MetaReads.Inc()
		b.run.MetaCacheMisses.Inc()
		aux = append(aux, AuxRead{Kind: AuxMeta, Key: key, Loc: loc})
	}
	b.auxScratch = aux
	b.wbScratch = wbs
	if req.MetaPending > 0 {
		req.WaitMeta = true
	} else {
		b.run.MetaCacheHits.Inc()
	}
	return aux, wbs
}

// unwait removes req from the fill waiting lists of keys, the keys its
// current acquisition has passed: a request waits on no other list.
func (b *ladderBase) unwait(req *WriteRequest, keys []uint64) {
	for _, key := range keys {
		list, ok := b.waiting[key]
		if !ok {
			continue
		}
		out := list[:0]
		for _, r := range list {
			if r != req {
				out = append(out, r)
			}
		}
		if len(out) == 0 {
			delete(b.waiting, key)
		} else {
			b.waiting[key] = out
		}
	}
}

// MetaArrived implements Scheme: it completes a fill and unblocks
// waiters.
func (b *ladderBase) MetaArrived(key uint64) {
	b.cache.Fill(key)
	for _, req := range b.waiting[key] {
		req.MetaPending--
		if req.MetaPending <= 0 {
			req.WaitMeta = false
		}
	}
	delete(b.waiting, key)
}

// retrySpill re-attempts acquisition for parked requests in FIFO order,
// stopping at the first request that still cannot reserve.
func (b *ladderBase) retrySpill(keysOf func(*WriteRequest) []uint64) ([]AuxRead, []MetaWriteback) {
	var aux []AuxRead
	var wbs []MetaWriteback
	for len(b.spill) > 0 {
		req := b.spill[0]
		req.Spilled = false
		b.spill = b.spill[1:]
		a, w := b.acquire(req, keysOf(req))
		aux = append(aux, a...)
		wbs = append(wbs, w...)
		if req.Spilled {
			// acquire() re-parked it at the tail; preserve FIFO by
			// moving it back to the head and stopping.
			b.spill = append([]*WriteRequest{req}, b.spill[:len(b.spill)-1]...)
			break
		}
	}
	return aux, wbs
}

// release drops the request's sharer holds after completion.
func (b *ladderBase) release(req *WriteRequest) {
	for _, key := range req.MetaKeys {
		b.cache.Release(key)
	}
}

// Cache exposes the metadata cache: a run's release recycles it and
// its evictions are exported as a run metric.
func (b *ladderBase) Cache() *MetaCache { return b.cache }

// RetryAware is implemented by schemes that must reconcile volatile
// LRS-metadata after a verify failure: a failed RESET proves the pulse
// under-provisioned the row's actual content, i.e. the scheme's cached
// estimate was stale. The controller invokes the hook once per
// program-and-verify reissue, before the escalated pulse dispatches;
// the row is open in the sense amplifiers, so the reconciliation is
// free of extra array reads.
type RetryAware interface {
	// WriteRetry reconciles metadata for req's row; attempt counts the
	// reissues so far (1 on the first retry).
	WriteRetry(req *WriteRequest, attempt int)
}

// CrashRecoverable is implemented by schemes that keep volatile
// LRS-metadata state and support the paper's Section 7 crash-recovery
// story.
type CrashRecoverable interface {
	// CrashRecover models a power failure followed by the lazy
	// conservative correction: cached metadata is lost and the persisted
	// region is overwritten with maximum counter values.
	CrashRecover()
}

// maxMetaLine is the all-maximum metadata line used by the conservative
// correction: every partial-counter code saturated. For the Basic layout
// the same byte pattern decodes to counters ≥ 512, which the timing
// lookup clamps to the worst bucket — still conservative.
func maxMetaLine() MetaLine {
	var ml MetaLine
	for i := range ml {
		ml[i] = 0xff
	}
	return ml
}

// CrashRecover implements CrashRecoverable: it drops the cache and
// applies the conservative correction. The spill buffer and fill waiting
// lists must already be empty (the controller drains before a modeled
// crash).
func (b *ladderBase) CrashRecover() {
	if len(b.spill) != 0 || len(b.waiting) != 0 {
		panic("core: crash with queued metadata work; drain the controller first")
	}
	b.cache.Crash()
	b.cache.RecoverConservative(maxMetaLine())
}

// UseConstrainedFNW implements Scheme: every LADDER scheme requires the
// ones-bounded FNW so counting stays sound.
func (b *ladderBase) UseConstrainedFNW() bool { return true }

// payloadFor applies the controller datapath: LADDER-Est/Hybrid shift the
// line; Basic stores it as-is.
func payloadFor(data bits.Line, slot int, shifting bool) bits.Line {
	if shifting {
		return bits.Shifted(data, slot)
	}
	return data
}

// recordCounterDiff samples the estimated-vs-accurate gap for Figure 15.
// The reference is the counter LADDER-Basic would hold: the exact count
// over the *unshifted* bit layout. A shifting scheme whose spread-out
// stored pattern carries fewer worst-wordline ones than the raw layout
// therefore records a negative difference, as in the paper's Figure 15b.
func (b *ladderBase) recordCounterDiff(req *WriteRequest, estimated int, shifted bool) {
	row := b.env.Geom.GlobalRow(req.Loc)
	var accurate int
	if shifted {
		accurate = b.env.Store.MaxRowCounterUnshifted(row)
	} else {
		accurate = b.env.Store.MaxRowCounter(row)
	}
	b.run.CounterGap.Observe(float64(estimated - accurate))
	switch {
	case estimated > accurate:
		b.mOverPredict.Inc()
	case estimated < accurate:
		b.mUnderPredict.Inc()
	default:
		b.mExactPredict.Inc()
	}
}
