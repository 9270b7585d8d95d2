package core

import (
	"fmt"

	"ladder/internal/recycle"
	"ladder/internal/reram"
)

// LRS-metadata cache (Section 3.3).
//
// A small set-associative cache in the memory controller holds active
// LRS-metadata lines. Each tag carries a Sharer count: the number of write
// queue entries whose data block needs this line. Eviction only considers
// ways with zero sharers; when a set has none, the incoming write request
// parks in a bounded spill buffer and retries when the scheduler switches
// between read and write mode.

// MetaCacheConfig sizes the cache (paper Table 2: 64 KB, 4-way, 64 B
// lines; 16-entry spill buffer).
type MetaCacheConfig struct {
	SizeBytes int
	Ways      int
	SpillSize int
}

// DefaultMetaCacheConfig returns the paper's configuration.
func DefaultMetaCacheConfig() MetaCacheConfig {
	return MetaCacheConfig{SizeBytes: 64 << 10, Ways: 4, SpillSize: 16}
}

// Validate reports whether the configuration builds a cache: a whole,
// positive number of sets and a positive spill buffer.
func (cfg MetaCacheConfig) Validate() error {
	lines := cfg.SizeBytes / MetaLineSize
	if cfg.Ways <= 0 || lines <= 0 || lines%cfg.Ways != 0 {
		return fmt.Errorf("core: bad metadata cache geometry (%d B, %d ways)", cfg.SizeBytes, cfg.Ways)
	}
	if cfg.SpillSize <= 0 {
		return fmt.Errorf("core: spill buffer size must be positive")
	}
	return nil
}

// entryState tracks a way's lifecycle.
type entryState int

const (
	entryInvalid entryState = iota
	// entryFilling: a metadata read is in flight for this way.
	entryFilling
	entryValid
)

// MetaLine is the 64-byte payload of one metadata block.
type MetaLine [MetaLineSize]byte

// metaEntry is one cache way.
type metaEntry struct {
	key     uint64
	state   entryState
	dirty   bool
	sharers int
	lastUse uint64
	loc     reram.Location
	data    MetaLine
}

// cacheMemory is a cache's storage: its set index, its backing map, and
// built sets no set holds. Recycle hands it to the next NewMetaCache
// (cacheMemories), so a warm process builds caches and their sets
// without allocating.
type cacheMemory struct {
	// sets holds each set's ways, built on the set's first Reserve: a
	// cache is built per scheme instance and grid sweeps build many, most
	// of whose sets a short run never touches. A nil set has no valid or
	// filling way.
	sets [][]metaEntry
	// spare holds built sets for Reserve to reuse.
	spare [][]metaEntry
	// backing is the metadata region content as persisted in main
	// memory; entries absent are synthesized by init (boot-time
	// initialization from resident memory content) or read as zero.
	backing map[uint64]MetaLine
}

// cacheMemories keeps recycled cache storage.
var cacheMemories = recycle.NewPool[cacheMemory]()

// MetaCache is the LRS-metadata cache plus the backing metadata memory
// image (the reserved region's persisted contents).
type MetaCache struct {
	cfg MetaCacheConfig
	// cacheMemory holds the sets and the backing map; mem is where
	// Recycle returns it (nil once recycled).
	cacheMemory
	mem  *cacheMemory
	tick uint64
	// init synthesizes first-touch metadata lines; the host initializes
	// the LRS-metadata region consistently with memory content at boot.
	init func(key uint64) MetaLine
	// evictions counts valid lines displaced by Reserve (dirty or clean);
	// exported into the run metrics as core.meta_cache.evictions.
	evictions uint64
}

// SetInitializer installs the boot-time metadata synthesizer.
func (c *MetaCache) SetInitializer(f func(key uint64) MetaLine) { c.init = f }

// NewMetaCache builds a cache from the configuration.
func NewMetaCache(cfg MetaCacheConfig) (*MetaCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / MetaLineSize / cfg.Ways
	mem := cacheMemories.Get()
	if cap(mem.sets) < sets {
		mem.sets = make([][]metaEntry, sets)
	}
	mem.sets = mem.sets[:sets]
	clear(mem.sets)
	if len(mem.spare) > 0 && len(mem.spare[0]) != cfg.Ways {
		mem.spare = mem.spare[:0]
	}
	if mem.backing == nil {
		mem.backing = make(map[uint64]MetaLine)
	}
	return &MetaCache{cfg: cfg, cacheMemory: *mem, mem: mem}, nil
}

// Recycle hands the cache's storage back for a later NewMetaCache to
// reuse. The cache must not be used again: any call that reaches a set
// or the backing map panics.
func (c *MetaCache) Recycle() {
	if c.mem == nil {
		return
	}
	for _, set := range c.sets {
		if set != nil {
			c.spare = append(c.spare, set)
		}
	}
	clear(c.backing)
	*c.mem = c.cacheMemory
	cacheMemories.Put(c.mem)
	c.cacheMemory, c.mem = cacheMemory{}, nil
}

// setOf returns key's set index.
func (c *MetaCache) setOf(key uint64) int {
	return int(mix64(key) % uint64(len(c.sets)))
}

// find returns the way holding key, or nil.
func (c *MetaCache) find(key uint64) *metaEntry {
	set := c.sets[c.setOf(key)]
	for i := range set {
		if set[i].state != entryInvalid && set[i].key == key {
			return &set[i]
		}
	}
	return nil
}

// Lookup reports whether key is present (valid or filling) and bumps LRU.
func (c *MetaCache) Lookup(key uint64) (present, valid bool) {
	e := c.find(key)
	if e == nil {
		return false, false
	}
	c.tick++
	e.lastUse = c.tick
	return true, e.state == entryValid
}

// AddSharer increments the sharer count of a present line.
func (c *MetaCache) AddSharer(key uint64) {
	if e := c.find(key); e != nil {
		e.sharers++
	}
}

// Release decrements the sharer count when a write queue entry that used
// the line retires.
func (c *MetaCache) Release(key uint64) {
	e := c.find(key)
	if e == nil {
		return
	}
	e.sharers--
	if e.sharers < 0 {
		panic(fmt.Sprintf("core: metadata line %d sharer count went negative", key))
	}
}

// Reserve allocates a way for key in the filling state with one sharer.
// If the victim is dirty its writeback is returned so the controller can
// enqueue a metadata write. ok is false when every way has sharers (the
// caller must spill).
func (c *MetaCache) Reserve(key uint64, loc reram.Location) (wb *MetaWriteback, ok bool) {
	s := c.setOf(key)
	if c.sets[s] == nil {
		c.sets[s] = c.newSet()
	}
	set := c.sets[s]
	var victim *metaEntry
	for i := range set {
		e := &set[i]
		if e.state == entryInvalid {
			victim = e
			break
		}
		if e.sharers == 0 && (victim == nil || victim.state != entryInvalid && e.lastUse < victim.lastUse) {
			victim = e
		}
	}
	if victim == nil {
		return nil, false
	}
	if victim.state != entryInvalid {
		c.evictions++
		if victim.dirty {
			// Persist the evicted content and charge a metadata write.
			c.backing[victim.key] = victim.data
			wb = &MetaWriteback{Key: victim.key, Loc: victim.loc}
		}
	}
	c.tick++
	*victim = metaEntry{key: key, state: entryFilling, sharers: 1, lastUse: c.tick, loc: loc}
	return wb, true
}

// newSet returns an empty set of ways, reusing a spare one when it can.
func (c *MetaCache) newSet() []metaEntry {
	n := len(c.spare)
	if n == 0 {
		return make([]metaEntry, c.cfg.Ways)
	}
	set := c.spare[n-1]
	c.spare = c.spare[:n-1]
	clear(set)
	return set
}

// Fill completes a metadata read: the way becomes valid with the backing
// content (synthesized on first touch when an initializer is set).
func (c *MetaCache) Fill(key uint64) {
	e := c.find(key)
	if e == nil || e.state != entryFilling {
		return
	}
	data, ok := c.backing[key]
	if !ok && c.init != nil {
		data = c.init(key)
		c.backing[key] = data
	}
	e.data = data
	e.state = entryValid
}

// Data returns a pointer to a valid line's payload for in-place update,
// or nil when absent/filling.
func (c *MetaCache) Data(key uint64) *MetaLine {
	e := c.find(key)
	if e == nil || e.state != entryValid {
		return nil
	}
	return &e.data
}

// MarkDirty flags a line as modified.
func (c *MetaCache) MarkDirty(key uint64) {
	if e := c.find(key); e != nil {
		e.dirty = true
	}
}

// Evictions returns how many valid lines Reserve has displaced (dirty
// and clean alike; dirty ones additionally produced writebacks).
func (c *MetaCache) Evictions() uint64 { return c.evictions }

// Sharers returns the sharer count (testing/diagnostics).
func (c *MetaCache) Sharers(key uint64) int {
	if e := c.find(key); e != nil {
		return e.sharers
	}
	return 0
}

// Backing returns the persisted copy of a metadata line.
func (c *MetaCache) Backing(key uint64) MetaLine { return c.backing[key] }

// SpillCapacity returns the spill buffer bound.
func (c *MetaCache) SpillCapacity() int { return c.cfg.SpillSize }

// Crash models an abrupt power failure: every cached line — including
// dirty LRS-metadata that never reached the NVM — is lost. The backing
// image keeps only what was persisted. The controller must be quiescent
// (no write-queue entry holding sharers); Crash panics otherwise, because
// losing a line out from under an in-flight write is a simulator bug, not
// a device behavior.
func (c *MetaCache) Crash() {
	for _, set := range c.sets {
		for i := range set {
			if set[i].state != entryInvalid && set[i].sharers > 0 {
				panic("core: crash with in-flight sharers; drain the controller first")
			}
			set[i] = metaEntry{}
		}
	}
}

// RecoverConservative performs the paper's lazy LRS-metadata correction
// (Section 7): after a crash the restored system cannot tell which
// metadata lines were stale, so it conservatively overwrites the region
// with maximum counter values. Later data writes use safe RESET timings
// and gradually re-tighten the counters.
func (c *MetaCache) RecoverConservative(max MetaLine) {
	for key := range c.backing {
		c.backing[key] = max
	}
	// Unseen lines also read as conservative values post-crash: the boot
	// scan that synthesized first-touch metadata is no longer trusted.
	c.init = func(uint64) MetaLine { return max }
}
