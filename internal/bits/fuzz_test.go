package bits

import "testing"

// lineFrom fills a line from fuzz bytes, repeating them to cover all 64
// bytes (zero when data is empty).
func lineFrom(data []byte) Line {
	var l Line
	if len(data) == 0 {
		return l
	}
	for i := range l {
		l[i] = data[i%len(data)]
	}
	return l
}

// FuzzFNWRoundTrip: encoding new data against any stale content with
// either Flip-N-Write flavour, then decoding with the returned flip
// mask, gives the new data back.
func FuzzFNWRoundTrip(f *testing.F) {
	f.Add([]byte{}, []byte{0xff})
	f.Add([]byte{0x00, 0xff}, []byte{0x0f, 0xf0, 0x01})
	f.Add([]byte{0xaa}, []byte{0x55})
	f.Fuzz(func(t *testing.T, oldBytes, newBytes []byte) {
		old, neu := lineFrom(oldBytes), lineFrom(newBytes)
		for _, enc := range []func(old, neu *Line) FNWResult{ClassicFNW, ConstrainedFNW} {
			stored := neu
			res := enc(&old, &stored)
			FNWDecode(&stored, res.Flips)
			if stored != neu {
				t.Fatalf("FNW round trip lost data: flips %08b", res.Flips)
			}
		}
	})
}

// FuzzShiftRoundTrip: Unshift inverts Shift at every block slot of a
// wordline group.
func FuzzShiftRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x01, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		l := lineFrom(data)
		for slot := 0; slot < 64; slot++ {
			got := l
			Shift(&got, slot)
			Unshift(&got, slot)
			if got != l {
				t.Fatalf("slot %d: Unshift(Shift(l)) != l", slot)
			}
		}
	})
}

// FuzzPartialDominates: a line's decoded partial counters never fall
// below its exact worst-byte popcount in any subgroup, the soundness
// LADDER-Est's latency bound rests on.
func FuzzPartialDominates(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x03, 0x07, 0x0f, 0x1f, 0x3f, 0x7f, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		l := lineFrom(data)
		got, exact := DecodePartial(EncodePartial(&l)), WorstBytePerSubgroup(&l)
		for g := range got {
			if got[g] < exact[g] {
				t.Fatalf("subgroup %d: decoded bound %d below exact worst byte %d", g, got[g], exact[g])
			}
		}
	})
}

// FuzzLowFromPartial: the low-precision code derived from a line's
// partial-counter code equals the one EncodeLowPrecision takes from the
// line itself.
func FuzzLowFromPartial(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x3f, 0x00, 0x7f, 0xff, 0x1f})
	f.Fuzz(func(t *testing.T, data []byte) {
		l := lineFrom(data)
		if got, want := LowFromPartial(EncodePartial(&l)), EncodeLowPrecision(&l); got != want {
			t.Fatalf("LowFromPartial(%08b) = %02b, EncodeLowPrecision %02b", EncodePartial(&l), got, want)
		}
	})
}
