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

// TestTapeCursorAllocFree pins a cursor's Next over an already generated
// stretch of its tape — every cell of a grid after the first replays
// its streams that way — at zero allocations.
func TestTapeCursorAllocFree(t *testing.T) {
	tape, err := NewTape(Profiles["lbm"], 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	lead := tape.Cursor()
	for i := 0; i < 2000; i++ {
		lead.Next()
	}
	c := tape.Cursor()
	if n := testing.AllocsPerRun(1000, func() { benchAccess = c.Next() }); n != 0 {
		t.Errorf("Cursor.Next allocates %.0f per call, want 0", n)
	}
}
