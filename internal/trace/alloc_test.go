//go:build !race

package trace

import "testing"

// TestGeneratorNextAllocFree pins Next, called once per simulated memory
// access, at zero allocations. The race detector instruments allocations,
// so the file is excluded under -race.
func TestGeneratorNextAllocFree(t *testing.T) {
	g, err := NewGenerator(Profiles["lbm"], 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { benchAccess = g.Next() }); n != 0 {
		t.Errorf("Next allocates %.0f per call, want 0", n)
	}
}
