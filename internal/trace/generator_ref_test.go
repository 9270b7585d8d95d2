package trace

import (
	"sort"
	"testing"

	"ladder/internal/bits"
)

// referenceSynthesize is Generator.synthesize with each bit's Bernoulli
// test written as a branch. synthesize sets the bit branch-free; it must
// build the same line from the same draws.
func referenceSynthesize(g *Generator, page uint64) bits.Line {
	var l bits.Line
	if g.rng.Float64() < g.prof.Compressibility {
		for w := 0; w < bits.LineSize/4; w++ {
			switch g.rng.Intn(4) {
			case 0:
				l[w*4] = byte(g.rng.Intn(16))
			case 1:
				l[w*4] = byte(g.rng.Intn(256))
			}
		}
		return l
	}
	d := g.prof.OnesDensity
	c := g.prof.Clustering
	dHot := d + (0.55-d)*c
	if dHot < d {
		dHot = d
	}
	dCold := d * (1 - 0.9*c)
	hot := pageHotPositions(page, g.seed)
	for j := 0; j < bits.LineSize; j++ {
		density := dCold
		if hot[j] {
			density = dHot
		}
		var b byte
		for k := 0; k < 8; k++ {
			if g.rng.Float64() < density {
				b |= 1 << uint(k)
			}
		}
		l[j] = b
	}
	return l
}

// TestSynthesizeMatchesReference synthesizes lines for every profile with
// synthesize and referenceSynthesize from identically seeded generators,
// comparing each line and the next draw afterwards, so a changed draw
// count fails as well as a changed bit.
func TestSynthesizeMatchesReference(t *testing.T) {
	names := make([]string, 0, len(Profiles))
	for name := range Profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fast, err := NewGenerator(Profiles[name], 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewGenerator(Profiles[name], 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 500; i++ {
			page := i * 40503 % uint64(Profiles[name].WorkingSetPages)
			if got, want := fast.synthesize(page), referenceSynthesize(ref, page); got != want {
				t.Fatalf("%s line %d: synthesize differs from the reference", name, i)
			}
			if got, want := fast.rng.Int63(), ref.rng.Int63(); got != want {
				t.Fatalf("%s line %d: next draw %d, reference %d (draw count changed)", name, i, got, want)
			}
		}
	}
}
