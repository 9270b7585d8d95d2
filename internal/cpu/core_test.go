package cpu

import (
	"testing"

	"ladder/internal/trace"
)

func testGen(t *testing.T) *trace.Generator {
	t.Helper()
	g, err := trace.NewGenerator(trace.Profiles["astar"], 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func acceptAll(int, trace.Access) bool { return true }
func rejectAll(int, trace.Access) bool { return false }

func TestNewCoreRejectsNilGenerator(t *testing.T) {
	if _, err := NewCore(0, nil, 8); err == nil {
		t.Fatal("expected error")
	}
}

func TestCoreRetiresOneInstructionPerTick(t *testing.T) {
	c, err := NewCore(0, testGen(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	// Memory accepts everything and completes reads instantly.
	instant := func(_ int, a trace.Access) bool { return true }
	const n = 10_000
	stalls := 0
	for i := 0; i < n; i++ {
		if !c.Tick(instant) {
			stalls++
		}
		for c.Outstanding() > 0 {
			c.ReadDone()
		}
	}
	// With an ideal memory, every tick retires exactly one instruction
	// (memory accesses retire as instructions too).
	if c.Retired() != n {
		t.Fatalf("retired %d, want %d", c.Retired(), n)
	}
	if stalls != 0 {
		t.Fatalf("stalls = %d, want 0", stalls)
	}
}

func TestCoreStallsWhenMemoryRejects(t *testing.T) {
	c, err := NewCore(0, testGen(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	// A stalled core sits at an access boundary, so the engine may skip
	// it in bulk: a skipped cycle is a stalled one and retires nothing.
	var cycles, stalls uint64
	for i := 0; i < 10_000; i++ {
		cycles++
		if !c.Tick(rejectAll) {
			stalls++
		}
		if i%100 == 0 && c.Stalled() {
			before := c.Retired()
			c.Skip(9)
			cycles += 9
			stalls += 9
			if c.Retired() != before {
				t.Fatal("a skipped stalled cycle retired an instruction")
			}
		}
	}
	if stalls == 0 {
		t.Fatal("expected stalls with memory rejecting")
	}
	if c.Retired() == 0 {
		t.Fatal("compute instructions should still retire")
	}
	if c.Retired()+stalls != cycles {
		t.Fatalf("retired %d + stalled %d != %d cycles: every cycle either retires or stalls", c.Retired(), stalls, cycles)
	}
}

func TestCoreMLPWindowLimitsOutstanding(t *testing.T) {
	const mlp = 4
	c, err := NewCore(0, testGen(t), mlp)
	if err != nil {
		t.Fatal(err)
	}
	// Accept reads but never complete them.
	issued := 0
	issue := func(_ int, a trace.Access) bool {
		if !a.Write {
			issued++
		}
		return true
	}
	for i := 0; i < 100_000; i++ {
		c.Tick(issue)
	}
	if c.Outstanding() != mlp {
		t.Fatalf("outstanding = %d, want %d", c.Outstanding(), mlp)
	}
	if issued != mlp {
		t.Fatalf("issued %d reads, want %d", issued, mlp)
	}
	// Completing one read lets exactly one more through.
	c.ReadDone()
	for i := 0; i < 100_000 && issued == mlp; i++ {
		c.Tick(issue)
	}
	if issued != mlp+1 {
		t.Fatalf("issued %d after completion, want %d", issued, mlp+1)
	}
}

func TestReadDonePanicsWithoutOutstanding(t *testing.T) {
	c, err := NewCore(0, testGen(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.ReadDone()
}

func TestDefaultMLPApplied(t *testing.T) {
	c, err := NewCore(3, testGen(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.id != 3 {
		t.Fatalf("id = %d", c.id)
	}
	if c.mlp != DefaultMLP {
		t.Fatalf("mlp = %d, want default %d", c.mlp, DefaultMLP)
	}
}
