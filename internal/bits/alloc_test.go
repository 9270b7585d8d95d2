//go:build !race

package bits

import "testing"

// The popcount/FNW/estimator helpers run on every write dispatch, so a
// single allocation per call multiplies into GC pressure that dominates
// short runs. These tests pin the zero-allocation contract; the race
// detector instruments allocations, so the file is excluded under -race.

// sink defeats dead-code elimination of the measured calls.
var sink int

func TestPopcountHelpersAllocFree(t *testing.T) {
	var l Line
	for i := range l {
		l[i] = byte(i * 37)
	}
	steps := map[string]func(){
		"Ones":          func() { sink = l.Ones() },
		"WorstByte":     func() { sink = WorstByte(l[:]) },
		"EncodePartial": func() { sink = int(EncodePartial(&l)) },
	}
	for name, fn := range steps {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %.0f per call, want 0", name, n)
		}
	}
}

func TestFNWAllocFree(t *testing.T) {
	var old, neu Line
	for i := range old {
		old[i] = byte(i)
		neu[i] = byte(^i)
	}
	if n := testing.AllocsPerRun(100, func() {
		work := neu
		res := ConstrainedFNW(&old, &work)
		sink = res.BitChanges
	}); n != 0 {
		t.Errorf("ConstrainedFNW allocates %.0f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		work := neu
		FNWDecode(&work, 0xA5)
		sink = int(work[0])
	}); n != 0 {
		t.Errorf("FNWDecode allocates %.0f per call, want 0", n)
	}
}

func TestEstimatorsAllocFree(t *testing.T) {
	var packed [64]uint8
	for i := range packed {
		packed[i] = uint8(i % 4)
	}
	if n := testing.AllocsPerRun(100, func() {
		sink = EstimateCwLRS(packed[:])
	}); n != 0 {
		t.Errorf("EstimateCwLRS allocates %.0f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sink = EstimateCwLRSLow(packed[:])
	}); n != 0 {
		t.Errorf("EstimateCwLRSLow allocates %.0f per call, want 0", n)
	}
}
