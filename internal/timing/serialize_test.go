package timing

import (
	"fmt"
	"testing"
)

// DecodeSPD reconstructs a (conservatively quantized) table from a ROM
// image.
func DecodeSPD(spd [SPDBytes]byte, granularity int, content ContentDim) (*Table, error) {
	if granularity <= 0 {
		return nil, fmt.Errorf("timing: granularity %d must be positive", granularity)
	}
	t := &Table{Granularity: granularity, Content: content}
	i := 0
	for wb := 0; wb < Buckets; wb++ {
		for bb := 0; bb < Buckets; bb++ {
			for cb := 0; cb < Buckets; cb++ {
				t.LatNs[wb][bb][cb] = spdNs(int(spd[i]))
				i++
			}
		}
	}
	return t, nil
}

func TestSPDRoundTripConservative(t *testing.T) {
	ts, err := NewTableSet(testParams())
	if err != nil {
		t.Fatal(err)
	}
	spd := ts.WL.EncodeSPD()
	dec, err := DecodeSPD(spd, ts.WL.Granularity, ts.WL.Content)
	if err != nil {
		t.Fatal(err)
	}
	span := float64(MaxLatencyNs-MinLatencyNs) / 255
	for wb := 0; wb < Buckets; wb++ {
		for bb := 0; bb < Buckets; bb++ {
			for cb := 0; cb < Buckets; cb++ {
				orig := ts.WL.LatNs[wb][bb][cb]
				got := dec.LatNs[wb][bb][cb]
				if got < orig-1e-9 {
					t.Fatalf("(%d,%d,%d): decoded %v optimistic vs %v", wb, bb, cb, got, orig)
				}
				if got > orig+span+1e-9 {
					t.Fatalf("(%d,%d,%d): decoded %v too pessimistic vs %v", wb, bb, cb, got, orig)
				}
			}
		}
	}
}

func TestDecodeSPDValidation(t *testing.T) {
	var spd [SPDBytes]byte
	if _, err := DecodeSPD(spd, 0, WLContent); err == nil {
		t.Fatal("zero granularity should fail")
	}
}

func TestSPDSizeMatchesPaper(t *testing.T) {
	if SPDBytes != 512 {
		t.Fatalf("SPD image = %d bytes, want 512 (paper Section 6.3)", SPDBytes)
	}
}

// FuzzSPDRoundTrip pins the ROM encoding as a fixed point: decoding any
// 512-byte image and re-encoding the table reproduces the image byte for
// byte, so a round trip never inflates an entry.
func FuzzSPDRoundTrip(f *testing.F) {
	var lo, hi [SPDBytes]byte
	for i := range lo {
		lo[i] = byte(i)
		hi[i] = byte(255 - i)
	}
	f.Add(lo[:])
	f.Add(hi[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		var spd [SPDBytes]byte
		copy(spd[:], data)
		dec, err := DecodeSPD(spd, 1, WLContent)
		if err != nil {
			t.Fatal(err)
		}
		if got := dec.EncodeSPD(); got != spd {
			for i := range got {
				if got[i] != spd[i] {
					t.Fatalf("entry %d: code %d re-encodes as %d", i, spd[i], got[i])
				}
			}
		}
	})
}
