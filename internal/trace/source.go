package trace

import "math/rand"

// source is a rand.Source64 that yields exactly rand.NewSource(seed)'s
// sequence: the same additive lagged Fibonacci generator, seeded the
// same way. Holding it as a concrete type lets the generator's per-bit
// draws skip the interface call *rand.Rand makes into its source.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
)

// rngCooked is math/rand's seeding table: the values its seeding XORs
// into the seed-derived state words. It is recovered from rand.NewSource
// at init rather than copied (see cookedTable).
var rngCooked = cookedTable()

// seedrand advances math/rand's seeding generator, x[n+1] = 48271 * x[n]
// mod (2^31 - 1).
func seedrand(x int32) int32 {
	const a, q, r = 48271, 44488, 3399
	hi, lo := x/q, x%q
	x = a*lo - r*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// seedWords returns the state words math/rand's seeding derives from
// seed before XORing in the seeding table.
func seedWords(seed int64) *[rngLen]int64 {
	var u [rngLen]int64
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := -20; i < rngLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			v := int64(x) << 40
			x = seedrand(x)
			v ^= int64(x) << 20
			x = seedrand(x)
			u[i] = v ^ int64(x)
		}
	}
	return &u
}

// cookedTable recovers math/rand's seeding table from the first rngLen
// outputs of one of its sources. Output k (from 1) adds tap word 607-k
// into feed word (334-k) mod 607 and returns the sum; each feed word is
// still initial when fed. For k <= 273 the tap word is initial too, so
// out_k = v[334-k] + v[607-k]. For k > 273 the tap word is the feed word
// of step k-273, so out_k = v[(334-k) mod 607] + out_{k-273}. Solving
// the second form, then the first, for the initial words v and XORing
// out the seed-derived words leaves the table.
func cookedTable() *[rngLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out [rngLen + 1]int64 // out[k] is output k
	for k := 1; k <= rngLen; k++ {
		out[k] = int64(src.Uint64())
	}
	var v [rngLen]int64
	for k := rngTap + 1; k <= rngLen; k++ {
		v[(rngLen-rngTap-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[rngLen-rngTap-k] = out[k] - v[rngLen-k]
	}
	u := seedWords(seed)
	for i := range v {
		v[i] ^= u[i]
	}
	return &v
}

// newSource returns a source seeded as rand.NewSource(seed) is.
func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed implements rand.Source.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	s.vec = *seedWords(seed)
	for i, c := range rngCooked {
		s.vec[i] ^= c
	}
}

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// drawLimit is the first Int63 draw whose rand.Float64 value rounds to
// 1: Float64 draws such a value again, and so does uniform.
const drawLimit = 1<<63 - 512

// uniform returns the Int63 draw behind one rand.Float64 call on this
// source, drawing again where Float64 does.
func (s *source) uniform() uint64 {
	for {
		if n := s.Uint64() &^ (1 << 63); n < drawLimit {
			return n
		}
	}
}

// byteBelow makes eight Bernoulli draws, uniform() < thr, and returns
// them as a byte, draw k in bit k. Draws and threshold are below 2^63,
// so a difference's sign bit is its comparison: a branch on each bit
// would mispredict on a density-sized share of them. Away from the ends
// of the state, the eight draws are eight sums in one pass, since each
// draw reads a tap word 273 places from the word it feeds and so none
// reads a word another writes. A draw at or past drawLimit, which
// uniform draws again, undoes the pass and takes uniform's path.
func (s *source) byteBelow(thr uint64) byte {
	var b byte
	if s.feed >= 8 && s.tap >= 8 {
		feed := (*[8]int64)(s.vec[s.feed-8 : s.feed])
		tap := (*[8]int64)(s.vec[s.tap-8 : s.tap])
		var over uint64
		for k := 0; k < 8; k++ {
			x := feed[7-k] + tap[7-k]
			feed[7-k] = x
			n := uint64(x) &^ (1 << 63)
			over |= n + (1<<63 - drawLimit) // bit 63: n >= drawLimit
			b |= byte((n-thr)>>63) << k
		}
		if over>>63 == 0 {
			s.feed -= 8
			s.tap -= 8
			return b
		}
		for k := range feed {
			feed[k] -= tap[k]
		}
		b = 0
	}
	for k := 0; k < 8; k++ {
		b |= byte((s.uniform()-thr)>>63) << k
	}
	return b
}

// below returns the smallest Int63 draw n whose rand.Float64 value,
// float64(n) / 2^63, is at least p, capped at drawLimit: for a draw n
// from uniform, Float64() < p holds exactly when n < below(p). Float64's
// value never decreases with n, so a binary search finds the edge.
func below(p float64) uint64 {
	lo, hi := uint64(0), uint64(drawLimit)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
