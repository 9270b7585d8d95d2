package reram

import "testing"

// FuzzDecodeEncode: over small valid geometries (each hierarchy dimension
// at most 64, MatRows at most 1024), Decode and Encode are inverses on
// [0, Lines()), Channel agrees with Decode, RowLocation inverts GlobalRow
// up to the block slot, and
// Decode rejects the first address past capacity. The simulator decodes
// a line once, where it enters, and keys every later step on the
// Location, so the decoder must stay a bijection.
func FuzzDecodeEncode(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(7), uint8(255), uint16(511), uint64(0))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint16(0), uint64(63))
	f.Add(uint8(2), uint8(4), uint8(6), uint8(63), uint16(1023), uint64(1)<<40)
	f.Fuzz(func(t *testing.T, ch, ranks, banks, groups uint8, matRows uint16, raw uint64) {
		g := Geometry{
			Channels:         int(ch%64) + 1,
			RanksPerChannel:  int(ranks%64) + 1,
			BanksPerRank:     int(banks%64) + 1,
			MatGroupsPerBank: int(groups%64) + 1,
			MatRows:          int(matRows%1024) + 1,
		}
		line := raw % g.Lines()
		loc, err := g.Decode(line)
		if err != nil {
			t.Fatalf("%+v: Decode(%d): %v", g, line, err)
		}
		if got := g.Encode(loc); got != line {
			t.Fatalf("%+v: Encode(Decode(%d)) = %d", g, line, got)
		}
		if got := g.Channel(line); got != loc.Channel {
			t.Fatalf("%+v: Channel(%d) = %d, Decode says %d", g, line, got, loc.Channel)
		}
		row := g.RowLocation(g.GlobalRow(loc))
		row.Slot, row.BLHigh = loc.Slot, loc.BLHigh
		if row != loc {
			t.Fatalf("%+v: line %d decodes to %+v, its global row's location is %+v", g, line, loc, row)
		}
		if _, err := g.Decode(g.Lines()); err == nil {
			t.Fatalf("%+v: Decode accepted Lines() = %d", g, g.Lines())
		}
	})
}
