package trace

import (
	"math/rand"

	"ladder/internal/bits"
)

// Access is one post-LLC memory event.
type Access struct {
	// Gap is the number of instructions the core retires before issuing
	// this access (since the previous access).
	Gap int
	// Write marks an LLC writeback; otherwise the access is a demand read
	// (LLC miss) the core will stall on once its MLP window fills.
	Write bool
	// Line is the 64-byte block address.
	Line uint64
	// Data is the written content (writes only).
	Data bits.Line
}

// BlocksPerPage is the number of lines in a 4 KB page.
const BlocksPerPage = 64

// Generator produces a deterministic access stream for one benchmark.
type Generator struct {
	prof Profile
	// rng makes the stream's occasional draws; synthesize makes a written
	// line's per-bit draws from its source src directly.
	rng  *rand.Rand
	src  *source
	seed int64
	// compressBelow, hotBelow and coldBelow are the Bernoulli thresholds
	// of synthesize's draws on src (see below): the profile's
	// compressibility and the ones densities of hot and cold bytes.
	compressBelow, hotBelow, coldBelow uint64

	basePage uint64
	hotPages uint64
	curPage  uint64
	curSlot  int
	meanGap  float64
	writeP   float64
	// Writeback stream state: the LLC evicts a page's dirty lines in
	// bursts, so writes walk their own page cursor.
	wPage  uint64
	wSlot  int
	wBurst int
}

// NewGenerator returns a generator for the profile, seeded
// deterministically. basePage offsets the benchmark's footprint so that
// the four programs of a mix occupy disjoint regions, as separate address
// spaces would.
func NewGenerator(p Profile, seed int64, basePage uint64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	hot := uint64(float64(p.WorkingSetPages) * p.HotFraction)
	if hot == 0 {
		hot = 1
	}
	src := newSource(seed)
	dHot, dCold := densities(p)
	return &Generator{
		prof:          p,
		rng:           rand.New(src),
		src:           src,
		seed:          seed,
		compressBelow: below(p.Compressibility),
		hotBelow:      below(dHot),
		coldBelow:     below(dCold),
		basePage:      basePage,
		hotPages:      hot,
		meanGap:       1000 / (p.RPKI + p.WPKI),
		writeP:        p.WPKI / (p.RPKI + p.WPKI),
	}, nil
}

// densities returns the ones densities of a profile's hot and cold bytes
// in non-compressible lines. Hot bytes saturate around 0.55: real dense
// bytes (FP exponents, pointer prefixes) carry 3–5 ones, not 7–8.
func densities(p Profile) (hot, cold float64) {
	d, c := p.OnesDensity, p.Clustering
	return max(d+(0.55-d)*c, d), d * (1 - 0.9*c)
}

// Next produces the next access in the stream.
func (g *Generator) Next() Access {
	var a Access
	a.Gap = int(g.rng.ExpFloat64() * g.meanGap)
	a.Write = g.rng.Float64() < g.writeP
	if a.Write {
		a.Line = g.nextWriteLine()
		a.Data = g.synthesize(g.wPage)
		return a
	}

	if g.rng.Float64() < g.prof.PageLocality {
		// Stay in the current page, mostly sequentially.
		g.curSlot++
		if g.curSlot >= BlocksPerPage || g.rng.Float64() < 0.1 {
			g.curSlot = g.rng.Intn(BlocksPerPage)
		}
	} else {
		g.curPage = g.jumpPage()
		g.curSlot = g.rng.Intn(BlocksPerPage)
	}
	a.Line = (g.basePage+g.curPage)*BlocksPerPage + uint64(g.curSlot)
	return a
}

// jumpPage picks a page with skewed reuse between the hot set and the
// cold remainder.
func (g *Generator) jumpPage() uint64 {
	if g.rng.Float64() < g.prof.HotTraffic {
		return uint64(g.rng.Int63n(int64(g.hotPages)))
	}
	return g.hotPages + uint64(g.rng.Int63n(int64(max(uint64(g.prof.WorkingSetPages)-g.hotPages, 1))))
}

// nextWriteLine advances the bursty writeback stream: writes dwell on one
// page for a geometrically distributed burst, then move on — half the
// time to the next page (sweeping arrays), otherwise jumping like reads.
func (g *Generator) nextWriteLine() uint64 {
	if g.wBurst <= 0 {
		if g.rng.Float64() < 0.5 {
			g.wPage = (g.wPage + 1) % uint64(g.prof.WorkingSetPages)
		} else {
			g.wPage = g.jumpPage()
		}
		g.wSlot = g.rng.Intn(BlocksPerPage)
		g.wBurst = 1 + int(g.rng.ExpFloat64()*(g.prof.WriteBurst-1))
	}
	g.wBurst--
	g.wSlot = (g.wSlot + 1) % BlocksPerPage
	return (g.basePage+g.wPage)*BlocksPerPage + uint64(g.wSlot)
}

// synthesize builds written data for a page following the profile's
// pattern parameters. Patterns are page-correlated: the hot byte
// positions are a deterministic function of the page number, so
// consecutive lines of a page repeat the same clustered layout (the
// phenomenon Section 4.1's shifting exploits). Each Bernoulli draw
// compares one uniform draw with its threshold, exactly as comparing
// rng.Float64() with the density would.
func (g *Generator) synthesize(page uint64) bits.Line {
	var l bits.Line
	if g.src.uniform() < g.compressBelow {
		// FPC-friendly content: sparse small integers, zero runs.
		for w := 0; w < bits.LineSize/4; w++ {
			switch g.rng.Intn(4) {
			case 0:
				l[w*4] = byte(g.rng.Intn(16)) // 4-bit value
			case 1:
				l[w*4] = byte(g.rng.Intn(256)) // one low byte
			default:
				// zero word
			}
		}
		return l
	}
	hot := pageHotPositions(page, g.seed)
	for j := 0; j < bits.LineSize; j++ {
		thr := g.coldBelow
		if hot[j] {
			thr = g.hotBelow
		}
		l[j] = g.src.byteBelow(thr)
	}
	return l
}

// pageHotPositions derives the page's eight hot byte positions, one per
// chip group so the clusters land in the same mats line after line.
func pageHotPositions(page uint64, seed int64) [bits.LineSize]bool {
	var hot [bits.LineSize]bool
	h := splitmix64(page ^ uint64(seed)*0x9e3779b97f4a7c15)
	for chip := 0; chip < bits.ChipGroups; chip++ {
		pos := chip*8 + int(h&7)
		hot[pos] = true
		h = splitmix64(h)
	}
	return hot
}

// splitmix64 is the standard splitmix64 mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
