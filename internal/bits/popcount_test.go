package bits

import (
	mbits "math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func randLine(r *rand.Rand) Line {
	var l Line
	r.Read(l[:])
	return l
}

func TestOnesZeroLine(t *testing.T) {
	var l Line
	if got := l.Ones(); got != 0 {
		t.Fatalf("Ones of zero line = %d, want 0", got)
	}
}

func TestOnesAllOnes(t *testing.T) {
	var l Line
	for i := range l {
		l[i] = 0xff
	}
	if got := l.Ones(); got != LineSize*8 {
		t.Fatalf("Ones of all-ones line = %d, want %d", got, LineSize*8)
	}
}

// countOnes is the byte-at-a-time reference for Line.Ones.
func countOnes(p []byte) int {
	n := 0
	for _, b := range p {
		n += mbits.OnesCount8(b)
	}
	return n
}

// diffBits counts the bit positions where a and b differ: the
// unencoded write's bit changes FNW must never exceed.
func diffBits(a, b []byte) int {
	d := 0
	for i := range a {
		d += mbits.OnesCount8(a[i] ^ b[i])
	}
	return d
}

func TestOnesMatchesCountOnes(t *testing.T) {
	f := func(l Line) bool { return l.Ones() == countOnes(l[:]) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorstByteBoundsAverage(t *testing.T) {
	// The worst byte is at least ceil(total/64) and at most 8.
	f := func(l Line) bool {
		w := WorstByte(l[:])
		total := l.Ones()
		lo := (total + LineSize - 1) / LineSize
		return w >= lo && w <= 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorstByteEmpty(t *testing.T) {
	if got := WorstByte(nil); got != 0 {
		t.Fatalf("WorstByte(nil) = %d, want 0", got)
	}
}

func TestWorstByteExact(t *testing.T) {
	p := []byte{0x00, 0x0f, 0xf3, 0x80}
	if got := WorstByte(p); got != 6 {
		t.Fatalf("WorstByte = %d, want 6", got)
	}
}

// TestWorstByteMatchesByteScan compares WorstByte's lane-parallel
// maximum against a byte-by-byte scan: every single hot byte at every
// position and length, then random slices of mixed density.
func TestWorstByteMatchesByteScan(t *testing.T) {
	scan := func(p []byte) int {
		m := 0
		for _, b := range p {
			if c := mbits.OnesCount8(b); c > m {
				m = c
			}
		}
		return m
	}
	check := func(p []byte) {
		t.Helper()
		if got, want := WorstByte(p), scan(p); got != want {
			t.Fatalf("WorstByte(%x) = %d, byte scan %d", p, got, want)
		}
	}
	for n := 1; n <= 24; n++ {
		for i := 0; i < n; i++ {
			for _, v := range []byte{0x01, 0x03, 0x07, 0x0f, 0x1f, 0x3f, 0x7f, 0xff} {
				p := make([]byte, n)
				for j := range p {
					p[j] = 0x10 // background of one LRS cell per byte
				}
				p[i] = v
				check(p)
			}
		}
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20000; trial++ {
		p := make([]byte, r.Intn(LineSize+8))
		ands := r.Intn(4)
		for j := range p {
			b := byte(r.Intn(256))
			for k := 0; k < ands; k++ {
				b &= byte(r.Intn(256))
			}
			p[j] = b
		}
		check(p)
	}
}

func TestDiffSelfIsZero(t *testing.T) {
	f := func(l Line) bool { return diffBits(l[:], l[:]) == 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiffComplement(t *testing.T) {
	var a, b Line
	for i := range a {
		a[i] = 0xaa
		b[i] = 0x55
	}
	if got := diffBits(a[:], b[:]); got != LineSize*8 {
		t.Fatalf("diffBits of complements = %d, want %d", got, LineSize*8)
	}
}

func TestOnesConservationUnderSetsResets(t *testing.T) {
	// ones(new) = ones(old) + sets - resets, where a SET is a 0→1
	// transition and a RESET a 1→0 one.
	f := func(a, b Line) bool {
		var sets, resets Line
		for i := range a {
			sets[i] = b[i] &^ a[i]
			resets[i] = a[i] &^ b[i]
		}
		return b.Ones() == a.Ones()+countOnes(sets[:])-countOnes(resets[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
