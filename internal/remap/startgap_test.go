package remap

import "testing"

func TestNewStartGapValidation(t *testing.T) {
	if _, err := NewStartGap(0, 10); err == nil {
		t.Fatal("zero segments should fail")
	}
	if _, err := NewStartGap(8, 0); err == nil {
		t.Fatal("zero period should fail")
	}
}

func TestStartGapBijective(t *testing.T) {
	s, err := NewStartGap(37, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Across many gap positions, the mapping must stay injective into
	// 0..n and never hit the gap slot.
	for step := 0; step < 500; step++ {
		seen := make(map[int]bool, s.n)
		for l := 0; l < s.n; l++ {
			p, err := s.Phys(l)
			if err != nil {
				t.Fatal(err)
			}
			if p < 0 || p > s.n {
				t.Fatalf("phys %d out of range", p)
			}
			if p == s.gap {
				t.Fatalf("logical %d mapped onto the gap slot %d", l, p)
			}
			if seen[p] {
				t.Fatalf("collision at physical %d (step %d)", p, step)
			}
			seen[p] = true
		}
		s.RecordWrite()
	}
}

func TestStartGapMovesEveryPeriod(t *testing.T) {
	s, _ := NewStartGap(8, 5)
	moves := 0
	for i := 0; i < 50; i++ {
		if s.RecordWrite() {
			moves++
		}
	}
	if moves != 10 {
		t.Fatalf("moves = %d, want 10", moves)
	}
}

func TestStartGapRotatesOverFullCycle(t *testing.T) {
	// After (n+1) gap moves the start advances: segment 0's physical slot
	// must eventually change, demonstrating wear migration.
	s, _ := NewStartGap(8, 1)
	initial, err := s.Phys(0)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for i := 0; i < (s.n+1)*s.n; i++ {
		s.RecordWrite()
		if p, err := s.Phys(0); err != nil {
			t.Fatal(err)
		} else if p != initial {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("segment 0 never moved")
	}
}

// TestRotationIsOneSlot pins the unit Rotations counts: after
// segments+1 gap moves on the decoder's layout, every logical segment
// sits exactly one slot further on (wrapping over the occupied slots),
// and Rotations reads 1 at that move count.
func TestRotationIsOneSlot(t *testing.T) {
	geom := testGeometry()
	const segRows = 64
	n := gapSegments(geom, segRows)
	s, err := NewStartGap(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n+1; i++ {
		s.RecordWrite()
	}
	for l := 0; l < n; l++ {
		p, err := s.Phys(l)
		if err != nil {
			t.Fatal(err)
		}
		if want := (l + 1) % n; p != want {
			t.Fatalf("after %d moves segment %d sits in slot %d, want %d", n+1, l, p, want)
		}
	}
	if r := Rotations(geom, segRows, uint64(n+1)); r != 1 {
		t.Fatalf("Rotations after %d moves = %v, want 1", n+1, r)
	}
}

func TestStartGapOutOfRangeError(t *testing.T) {
	s, _ := NewStartGap(4, 1)
	for _, logical := range []int{-1, 4, 100} {
		if _, err := s.Phys(logical); err == nil {
			t.Errorf("Phys(%d) on 4 segments should error", logical)
		}
	}
}
