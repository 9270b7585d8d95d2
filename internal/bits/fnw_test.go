package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClassicFNWNeverIncreasesChanges(t *testing.T) {
	f := func(old, neu Line) bool {
		plain := diffBits(old[:], neu[:])
		enc := neu
		res := ClassicFNW(&old, &enc)
		return res.BitChanges <= plain
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConstrainedFNWNeverIncreasesChanges(t *testing.T) {
	f := func(old, neu Line) bool {
		plain := diffBits(old[:], neu[:])
		enc := neu
		res := ConstrainedFNW(&old, &enc)
		return res.BitChanges <= plain
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestConstrainedFNWOnesBound is LADDER's correctness condition: the stored
// line never carries more ones than the unencoded line would.
func TestConstrainedFNWOnesBound(t *testing.T) {
	f := func(old, neu Line) bool {
		enc := neu
		ConstrainedFNW(&old, &enc)
		return enc.Ones() <= neu.Ones()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFNWDecodeRoundTrip(t *testing.T) {
	f := func(old, neu Line) bool {
		enc := neu
		res := ClassicFNW(&old, &enc)
		FNWDecode(&enc, res.Flips)
		return enc == neu
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConstrainedFNWDecodeRoundTrip(t *testing.T) {
	f := func(old, neu Line) bool {
		enc := neu
		res := ConstrainedFNW(&old, &enc)
		FNWDecode(&enc, res.Flips)
		return enc == neu
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFNWFlipsWhenProfitable(t *testing.T) {
	// Old all zeros, new all ones: storing inverted (all zeros) costs only
	// the flip bits, so every unit must flip.
	var old, neu Line
	for i := range neu {
		neu[i] = 0xff
	}
	enc := neu
	res := ClassicFNW(&old, &enc)
	if res.Flips != 0xff {
		t.Fatalf("flips = %08b, want all units flipped", res.Flips)
	}
	if res.BitChanges != FNWUnits { // one flip bit per unit
		t.Fatalf("bit changes = %d, want %d", res.BitChanges, FNWUnits)
	}
}

func TestConstrainedFNWVetoesOnesIncrease(t *testing.T) {
	// Old content mostly ones, new content with few ones: classic FNW would
	// flip (inverted new is close to old), but the flipped word carries more
	// ones than the original, so LADDER must cancel it.
	var old, neu Line
	for i := range old {
		old[i] = 0xff
	}
	// neu has 1 one per byte -> inverted has 7 ones per byte.
	for i := range neu {
		neu[i] = 0x01
	}
	encClassic := neu
	rc := ClassicFNW(&old, &encClassic)
	if rc.Flips == 0 {
		t.Fatal("classic FNW unexpectedly did not flip")
	}
	encCons := neu
	cc := ConstrainedFNW(&old, &encCons)
	if cc.Flips != 0 {
		t.Fatalf("constrained FNW flipped despite ones increase: %08b", cc.Flips)
	}
	if cc.Canceled != FNWUnits {
		t.Fatalf("canceled = %d, want %d", cc.Canceled, FNWUnits)
	}
}

func TestFNWCancellationRateLowOnSparseData(t *testing.T) {
	// The paper reports <4% of flips canceled on real workloads. Real
	// workload data is ones-sparse, so inversion rarely both wins on bit
	// changes and increases the ones count. Model that with sparse lines.
	r := rand.New(rand.NewSource(99))
	sparse := func() Line {
		var l Line
		for i := range l {
			if r.Intn(4) == 0 {
				l[i] = byte(r.Intn(256)) & byte(r.Intn(256))
			}
		}
		return l
	}
	units, canceled := 0, 0
	for i := 0; i < 2000; i++ {
		old, neu := sparse(), sparse()
		enc := neu
		res := ConstrainedFNW(&old, &enc)
		units += FNWUnits
		canceled += res.Canceled
	}
	if rate := float64(canceled) / float64(units); rate > 0.05 {
		t.Fatalf("cancellation rate %.3f unexpectedly high for sparse data", rate)
	}
}

func TestFNWIdempotentWhenEqual(t *testing.T) {
	f := func(l Line) bool {
		old, enc := l, l
		res := ClassicFNW(&old, &enc)
		return res.Flips == 0 && res.BitChanges == 0 && enc == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
