package trace

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds covers math/rand's seeding cases: zero (replaced by
// 89482311), negative seeds, seeds at and past 2^31-1 (reduced modulo
// it), and large magnitudes of both signs.
var sourceSeeds = []int64{0, 1, -1, 89482311, 1<<31 - 1, 1 << 40, -1 << 50}

// TestSourceMatchesMathRand draws from a rand.Rand over source and from
// rand.New(rand.NewSource(seed)) side by side, through every draw the
// generator makes, and requires the same value at every step.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range sourceSeeds {
		got, want := rand.New(newSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			var g, w float64
			switch i % 6 {
			case 0:
				g, w = float64(got.Int63()), float64(want.Int63())
			case 1:
				g, w = float64(got.Uint64()), float64(want.Uint64())
			case 2:
				g, w = got.Float64(), want.Float64()
			case 3:
				g, w = got.ExpFloat64(), want.ExpFloat64()
			case 4:
				n := 1 + i%1000
				g, w = float64(got.Intn(n)), float64(want.Intn(n))
			case 5:
				n := int64(1)<<40 + int64(i)
				g, w = float64(got.Int63n(n)), float64(want.Int63n(n))
			}
			if g != w {
				t.Fatalf("seed %d, draw %d: source gives %v, math/rand %v", seed, i, g, w)
			}
		}
		// Raw Uint64 draws past the first full turn of the state.
		src, ref := newSource(seed), rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 2*rngLen; i++ {
			if g, w := src.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d, raw draw %d: %#x, math/rand %#x", seed, i, g, w)
			}
		}
	}
}

// TestSourceUniformMatchesFloat64 checks that comparing uniform's draw
// with below(p) decides Float64() < p on the same stream, for the
// densities the profiles use and for edge probabilities.
func TestSourceUniformMatchesFloat64(t *testing.T) {
	ps := []float64{0, 1e-300, 0.1, 0.25, 0.5, 1 - 1e-16, 1, 1.5}
	for _, name := range []string{"lbm", "mcf", "astar", "zeusmp"} {
		hot, cold := densities(Profiles[name])
		ps = append(ps, Profiles[name].Compressibility, hot, cold)
	}
	for _, p := range ps {
		src, ref := newSource(7), rand.New(rand.NewSource(7))
		thr := below(p)
		for i := 0; i < 2000; i++ {
			if got, want := src.uniform() < thr, ref.Float64() < p; got != want {
				t.Fatalf("p %v, draw %d: uniform < below(p) is %v, Float64() < p %v", p, i, got, want)
			}
		}
	}
}

// TestBelowEdges checks below(p) at its edge: the draw just under the
// threshold has a Float64 value under p and the threshold's value does
// not, and draws at or past drawLimit are the ones Float64 redraws
// because they round to 1.
func TestBelowEdges(t *testing.T) {
	f := func(n uint64) float64 { return float64(n) / (1 << 63) }
	for _, p := range []float64{1e-300, 0.1, 0.1875, 0.3, 0.55, 0.9, 1 - 1e-16} {
		thr := below(p)
		if thr == 0 || thr >= drawLimit {
			t.Fatalf("p %v: threshold %d out of range", p, thr)
		}
		if f(thr-1) >= p || f(thr) < p {
			t.Errorf("p %v: Float64 value %v below the threshold, %v at it", p, f(thr-1), f(thr))
		}
	}
	if below(0) != 0 || below(1) != drawLimit || below(math.Inf(1)) != drawLimit {
		t.Errorf("below(0) = %d, below(1) = %d, below(+Inf) = %d; want 0, %d, %d",
			below(0), below(1), below(math.Inf(1)), uint64(drawLimit), uint64(drawLimit))
	}
	if f(drawLimit-1) == 1 || f(drawLimit) != 1 || f(1<<63-1) != 1 {
		t.Errorf("Float64 values around drawLimit: %v, %v, %v; want <1, 1, 1",
			f(drawLimit-1), f(drawLimit), f(1<<63-1))
	}
}

// TestByteBelowMatchesUniform checks byteBelow against eight uniform
// draws on a copy of the source, across every position of the state,
// for thresholds at both ends and between, and with a draw at or past
// drawLimit planted at each place in a pass, where uniform draws again.
func TestByteBelowMatchesUniform(t *testing.T) {
	slow := func(s *source, thr uint64) byte {
		var b byte
		for k := 0; k < 8; k++ {
			if s.uniform() < thr {
				b |= 1 << k
			}
		}
		return b
	}
	check := func(s *source, thr uint64, what string) {
		t.Helper()
		ref := *s
		if got, want := s.byteBelow(thr), slow(&ref, thr); got != want || *s != ref {
			t.Fatalf("%s, threshold %#x: byteBelow %08b, uniform %08b, same state %v", what, thr, got, want, *s == ref)
		}
	}
	thrs := []uint64{0, 1, below(0.1875), 1 << 62, drawLimit - 1, drawLimit}
	s := newSource(42)
	for i := 0; i < 3*rngLen; i++ {
		check(s, thrs[i%len(thrs)], "plain draws")
	}
	for k := 0; k < 8; k++ {
		for _, past := range []int64{drawLimit, 1<<63 - 1, -1} {
			s := newSource(int64(k))
			for s.feed < 8 || s.tap < 8 {
				s.Uint64()
			}
			// Draw k of the next pass sums feed word feed-1-k and tap
			// word tap-1-k: make it past.
			s.vec[s.feed-1-k] = past - s.vec[s.tap-1-k]
			check(s, below(0.5), "a planted draw past drawLimit")
		}
	}
}
