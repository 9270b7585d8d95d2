package bits

import (
	mbits "math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// PartialCounters holds the per-subgroup worst-byte bounds for one line.
// Values are the decoded bounds (1, 3, 5 or 8), not raw worst-byte counts.
type PartialCounters [NumSubgroups]uint8

// DecodePartial expands a packed partial-counter byte into per-subgroup
// decoded bounds.
func DecodePartial(packed uint8) PartialCounters {
	var pc PartialCounters
	for g := 0; g < NumSubgroups; g++ {
		pc[g] = partialBound[(packed>>(2*uint(g)))&3]
	}
	return pc
}

// WorstBytePerSubgroup returns the exact (unencoded) worst-byte popcount of
// each subgroup of the line, i.e. S^{M_j}_i for j = 0..N-1.
func WorstBytePerSubgroup(l *Line) PartialCounters {
	var pc PartialCounters
	for g := 0; g < NumSubgroups; g++ {
		pc[g] = uint8(WorstByte(l[g*SubgroupBytes : (g+1)*SubgroupBytes]))
	}
	return pc
}

func TestPartialEncodeRanges(t *testing.T) {
	wantCode := []uint8{0, 0, 1, 1, 2, 2, 3, 3, 3}
	for worst := 0; worst <= 8; worst++ {
		if got := partialEncode(worst); got != wantCode[worst] {
			t.Errorf("partialEncode(%d) = %d, want %d", worst, got, wantCode[worst])
		}
	}
}

func TestPartialBoundIsUpperBound(t *testing.T) {
	// For every worst-byte count, the decoded bound must dominate it.
	for worst := 0; worst <= 8; worst++ {
		bound := partialBound[partialEncode(worst)]
		if int(bound) < worst {
			t.Errorf("bound %d < worst %d", bound, worst)
		}
	}
}

func TestEncodeDecodePartialDominates(t *testing.T) {
	// Decoded per-subgroup bounds must dominate the exact worst bytes.
	f := func(l Line) bool {
		pc := DecodePartial(EncodePartial(&l))
		exact := WorstBytePerSubgroup(&l)
		for g := 0; g < NumSubgroups; g++ {
			if pc[g] < exact[g] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEquation1 verifies the paper's key soundness inequality: the true
// worst-wordline LRS count of a wordline group never exceeds the estimate
// derived from encoded partial counters (Equations 1 and 2).
func TestEquation1(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const blocks = 64
	for trial := 0; trial < 200; trial++ {
		lines := make([]Line, blocks)
		packed := make([]uint8, blocks)
		for i := range lines {
			// Mix of dense, sparse, and clustered lines.
			switch trial % 3 {
			case 0:
				r.Read(lines[i][:])
			case 1:
				for j := 0; j < 8; j++ {
					lines[i][r.Intn(LineSize)] = 0xff
				}
			default:
				for j := range lines[i] {
					if r.Intn(10) == 0 {
						lines[i][j] = byte(r.Intn(256))
					}
				}
			}
			packed[i] = EncodePartial(&lines[i])
		}
		// True per-wordline counts: wordline m holds byte m of every block.
		trueMax := 0
		for m := 0; m < LineSize; m++ {
			c := 0
			for b := 0; b < blocks; b++ {
				c += mbits.OnesCount8(lines[b][m])
			}
			if c > trueMax {
				trueMax = c
			}
		}
		est := EstimateCwLRS(packed)
		if trueMax > est {
			t.Fatalf("trial %d: true Cw_lrs %d exceeds estimate %d", trial, trueMax, est)
		}
		if est > blocks*8 {
			t.Fatalf("trial %d: estimate %d exceeds physical max %d", trial, est, blocks*8)
		}
	}
}

// TestEquation1LowPrecision is the same soundness check for the 1-bit
// counters used in bottom rows by LADDER-Hybrid.
func TestEquation1LowPrecision(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const blocks = 64
	for trial := 0; trial < 100; trial++ {
		lines := make([]Line, blocks)
		packed := make([]uint8, blocks)
		for i := range lines {
			r.Read(lines[i][:])
			packed[i] = EncodeLowPrecision(&lines[i])
		}
		trueMax := 0
		for m := 0; m < LineSize; m++ {
			c := 0
			for b := 0; b < blocks; b++ {
				c += mbits.OnesCount8(lines[b][m])
			}
			if c > trueMax {
				trueMax = c
			}
		}
		if est := EstimateCwLRSLow(packed); trueMax > est {
			t.Fatalf("trial %d: true %d > low-precision estimate %d", trial, trueMax, est)
		}
	}
}

func TestDecodeLowPrecision(t *testing.T) {
	cases := []struct {
		packed uint8
		want   [2]uint8
	}{
		{0b00, [2]uint8{5, 5}},
		{0b01, [2]uint8{8, 5}},
		{0b10, [2]uint8{5, 8}},
		{0b11, [2]uint8{8, 8}},
	}
	// EstimateCwLRSLow reads the two decoded bounds from 16-bit lanes 0
	// and 1 of lowSumTable.
	for _, c := range cases {
		lanes := lowSumTable[c.packed]
		if got := [2]uint8{uint8(lanes), uint8(lanes >> 16)}; got != c.want {
			t.Errorf("low-precision pair %02b decodes to %v, want %v", c.packed, got, c.want)
		}
	}
}

func TestEncodeLowPrecisionHalves(t *testing.T) {
	var l Line
	for i := 0; i < 32; i++ {
		l[i] = 0xff // dense first half
	}
	p := EncodeLowPrecision(&l)
	if p != 0b01 {
		t.Fatalf("packed = %02b, want 01", p)
	}
}

func TestEstimateCwLRSEmpty(t *testing.T) {
	if got := EstimateCwLRS(nil); got != 0 {
		t.Fatalf("estimate of empty group = %d, want 0", got)
	}
}

func TestEstimateCwLRSAllDense(t *testing.T) {
	packed := make([]uint8, 64)
	for i := range packed {
		packed[i] = 0xff // all subgroups code 3 -> bound 8
	}
	if got := EstimateCwLRS(packed); got != 512 {
		t.Fatalf("estimate = %d, want 512", got)
	}
}

func TestWorstBytesNValidation(t *testing.T) {
	var l Line
	if WorstBytesN(&l, 0) != nil || WorstBytesN(&l, 3) != nil {
		t.Fatal("invalid subgroup counts should return nil")
	}
	if got := len(WorstBytesN(&l, 8)); got != 8 {
		t.Fatalf("n=8 returned %d groups", got)
	}
}

// TestSubgroupTightnessMonotone: more subgroups never loosen the bound,
// and every N soundly bounds the true count (Equation 2 generalized).
func TestSubgroupTightnessMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		lines := make([]Line, 64)
		for i := range lines {
			for j := 0; j < 8; j++ {
				lines[i][r.Intn(LineSize)] = byte(r.Intn(256))
			}
		}
		truth := TrueCwLRS(lines)
		prev := 1 << 30
		for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
			est := EstimateCwLRSExactN(lines, n)
			if est < truth {
				t.Fatalf("n=%d: estimate %d below truth %d", n, est, truth)
			}
			if est > prev {
				t.Fatalf("n=%d: estimate %d looser than n/2's %d", n, est, prev)
			}
			prev = est
		}
		// With 64 subgroups each subgroup is a single byte position, so the
		// per-subgroup sum is exactly the per-wordline counter and the
		// bound collapses to the truth.
		if got := EstimateCwLRSExactN(lines, 64); got != truth {
			t.Fatalf("n=64 estimate %d should equal truth %d", got, truth)
		}
	}
}

// TestLowFromPartialExhaustive builds, for every packed partial-counter
// code, a line whose subgroups carry those codes, then random lines, and
// checks that the low-precision code derived from the partial code is
// EncodeLowPrecision's.
func TestLowFromPartialExhaustive(t *testing.T) {
	byCode := [4]byte{0x00, 0x03, 0x0f, 0xff} // worst bytes 0, 2, 4 and 8
	for p := 0; p < 256; p++ {
		var l Line
		for g := 0; g < NumSubgroups; g++ {
			l[g*SubgroupBytes+g] = byCode[p>>(2*g)&3]
		}
		if got := EncodePartial(&l); got != uint8(p) {
			t.Fatalf("test line for code %08b encodes to %08b", p, got)
		}
		if got, want := LowFromPartial(uint8(p)), EncodeLowPrecision(&l); got != want {
			t.Fatalf("LowFromPartial(%08b) = %02b, EncodeLowPrecision %02b", p, got, want)
		}
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		var l Line
		for i := range l {
			l[i] = byte(r.Intn(256) & r.Intn(256))
		}
		if got, want := LowFromPartial(EncodePartial(&l)), EncodeLowPrecision(&l); got != want {
			t.Fatalf("trial %d: derived %02b, EncodeLowPrecision %02b", trial, got, want)
		}
	}
}
