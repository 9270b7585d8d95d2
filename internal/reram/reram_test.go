package reram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ladder/internal/bits"
)

func TestDefaultGeometryCapacity(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.CapacityBytes(); got != 16<<30 {
		t.Fatalf("capacity = %d bytes, want 16 GiB", got)
	}
	if got := g.Banks(); got != 32 {
		t.Fatalf("banks = %d, want 32", got)
	}
	if got := g.RowsPerBank(); got != 256*512 {
		t.Fatalf("rows per bank = %d", got)
	}
}

func TestGeometryValidation(t *testing.T) {
	bad := []Geometry{
		{},
		{Channels: 1, RanksPerChannel: 1, BanksPerRank: 0, MatGroupsPerBank: 1, MatRows: 512},
		{Channels: 1, RanksPerChannel: 1, BanksPerRank: 1, MatGroupsPerBank: 0, MatRows: 512},
		{Channels: 1, RanksPerChannel: 1, BanksPerRank: 1, MatGroupsPerBank: 1, MatRows: 0},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestDecodeEncodeRoundTrip(t *testing.T) {
	g := DefaultGeometry()
	f := func(raw uint64) bool {
		line := raw % g.Lines()
		loc, err := g.Decode(line)
		if err != nil {
			return false
		}
		return g.Encode(loc) == line
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeFieldsInRange(t *testing.T) {
	g := DefaultGeometry()
	f := func(raw uint64) bool {
		loc, err := g.Decode(raw % g.Lines())
		if err != nil {
			return false
		}
		return loc.Channel < g.Channels && loc.Rank < g.RanksPerChannel &&
			loc.Bank < g.BanksPerRank && loc.Row < g.RowsPerBank() &&
			loc.Slot < BlocksPerRow && loc.WL < g.MatRows &&
			loc.BLHigh == loc.Slot*8+7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeOutOfRange(t *testing.T) {
	g := DefaultGeometry()
	if _, err := g.Decode(g.Lines()); err == nil {
		t.Fatal("expected error beyond capacity")
	}
}

func TestConsecutiveLinesShareRow(t *testing.T) {
	g := DefaultGeometry()
	// Lines 0..63 must land in the same wordline group (one 4 KB page),
	// with slots 0..63.
	base, err := g.Decode(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i < BlocksPerRow; i++ {
		loc, err := g.Decode(i)
		if err != nil {
			t.Fatal(err)
		}
		if g.GlobalRow(loc) != g.GlobalRow(base) {
			t.Fatalf("line %d left the wordline group", i)
		}
		if loc.Slot != int(i) {
			t.Fatalf("line %d slot = %d", i, loc.Slot)
		}
	}
	// Line 64 starts a new row on the next channel.
	next, err := g.Decode(BlocksPerRow)
	if err != nil {
		t.Fatal(err)
	}
	if g.GlobalRow(next) == g.GlobalRow(base) {
		t.Fatal("line 64 stayed in the same wordline group")
	}
	if next.Channel == base.Channel {
		t.Fatal("consecutive rows should interleave across channels")
	}
}

func TestGlobalRowDistinctAcrossBanks(t *testing.T) {
	g := DefaultGeometry()
	seen := make(map[uint64]bool)
	for line := uint64(0); line < 200*BlocksPerRow; line += BlocksPerRow {
		loc, err := g.Decode(line)
		if err != nil {
			t.Fatal(err)
		}
		k := g.GlobalRow(loc)
		if seen[k] {
			t.Fatalf("global row %d repeats at line %d", k, line)
		}
		seen[k] = true
	}
}

// decodeLine decodes a line address the test knows to be in range.
func decodeLine(t testing.TB, g Geometry, line uint64) Location {
	t.Helper()
	loc, err := g.Decode(line)
	if err != nil {
		t.Fatal(err)
	}
	return loc
}

func TestStoreReadUnwritten(t *testing.T) {
	s, err := NewStore(DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	if s.Read(decodeLine(t, s.geom, 12345)) != (bits.Line{}) {
		t.Fatal("unwritten line should read as zero")
	}
}

func TestStoreWriteReadBack(t *testing.T) {
	s, err := NewStore(DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	var l bits.Line
	rand.New(rand.NewSource(3)).Read(l[:])
	old, err := s.Write(100, l)
	if err != nil {
		t.Fatal(err)
	}
	if old != (bits.Line{}) {
		t.Fatal("first write should return zero old content")
	}
	if s.Read(decodeLine(t, s.geom, 100)) != l {
		t.Fatal("read-back mismatch")
	}
}

func TestStoreWriteReturnsOld(t *testing.T) {
	s, err := NewStore(DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	var a, b bits.Line
	a[0], b[0] = 1, 2
	if _, err := s.Write(7, a); err != nil {
		t.Fatal(err)
	}
	if old := s.WriteAt(decodeLine(t, s.geom, 7), b); old != a {
		t.Fatal("second write should return first content")
	}
}

// TestFlipMaskInRowView: WriteFNW keeps each block's flip mask next to
// its content, keyed like the content; ReadLogical undoes it. A block
// never written through WriteFNW reads back as stored (mask 0), and
// WriteAt leaves a block's mask alone.
func TestFlipMaskInRowView(t *testing.T) {
	s, err := NewStore(DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	var logical bits.Line
	for i := range logical {
		logical[i] = byte(i*37 + 1)
	}
	const flips = 0xA5
	stored := logical
	bits.FNWDecode(&stored, flips) // the flips are an involution
	loc, neighbor := decodeLine(t, s.geom, 70), decodeLine(t, s.geom, 71)
	if got := s.ReadLogical(loc); got != (bits.Line{}) {
		t.Fatalf("unwritten block reads %v, want zeros", got)
	}
	s.WriteFNW(loc, stored, flips)
	if got := s.ReadLogical(loc); got != logical {
		t.Fatalf("ReadLogical = %v, want the logical content %v", got, logical)
	}
	if got := s.Read(loc); got != stored {
		t.Fatal("Read does not return the stored (flipped) content")
	}
	s.WriteAt(neighbor, stored)
	if got := s.ReadLogical(neighbor); got != stored {
		t.Fatal("a block written only through WriteAt must read back unflipped")
	}
	s.WriteAt(loc, stored)
	if got := s.ReadLogical(loc); got != logical {
		t.Fatal("WriteAt changed the block's flip mask")
	}
	s.WriteFNW(loc, logical, 0)
	if got := s.ReadLogical(loc); got != logical {
		t.Fatal("a zero mask must clear the block's flips")
	}
}

// TestIncrementalCountersMatchRecount is the store's core invariant: after
// any write sequence the incrementally maintained per-wordline counters
// equal a recount from the stored data.
func TestIncrementalCountersMatchRecount(t *testing.T) {
	s, err := NewStore(DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		line := uint64(r.Intn(256)) // stay within a few rows to force overwrites
		var l bits.Line
		r.Read(l[:])
		if _, err := s.Write(line, l); err != nil {
			t.Fatal(err)
		}
	}
	for _, probe := range []uint64{0, 64, 128, 192} {
		row := s.geom.GlobalRow(decodeLine(t, s.geom, probe))
		if s.RowCounters(row) != s.RecountRow(row) {
			t.Fatalf("row %d: incremental counters diverge from recount", row)
		}
	}
}

func TestMaxRowCounterTracksDensity(t *testing.T) {
	s, err := NewStore(DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	var dense bits.Line
	for i := range dense {
		dense[i] = 0xff
	}
	// Write 10 dense blocks into one row: every wordline of the group
	// accumulates 8 LRS bits per block.
	for slot := uint64(0); slot < 10; slot++ {
		if _, err := s.Write(slot, dense); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.MaxRowCounter(0); got != 80 {
		t.Fatalf("MaxRowCounter = %d, want 80", got)
	}
}

func TestStoreWearTracking(t *testing.T) {
	s, err := NewStore(DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	var l bits.Line
	for i := 0; i < 5; i++ {
		if _, err := s.Write(0, l); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Write(64, l); err != nil {
		t.Fatal(err)
	}
	if got := s.RowWrites(s.geom.GlobalRow(decodeLine(t, s.geom, 3))); got != 5 {
		t.Fatalf("row writes = %d, want 5 (same row as line 0)", got)
	}
	if got := s.TotalWrites(); got != 6 {
		t.Fatalf("total writes = %d, want 6", got)
	}
	if got := s.MaxRowWrites(); got != 5 {
		t.Fatalf("max row writes = %d, want 5", got)
	}
	if got := s.TouchedRows(); got != 2 {
		t.Fatalf("touched rows = %d, want 2", got)
	}
}

func TestMaxSelectedColCount(t *testing.T) {
	s, err := NewStore(DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	g := s.Geometry()
	slot0, slot5 := decodeLine(t, g, 0), decodeLine(t, g, 5)
	// Unwritten memory: zero.
	if got := s.MaxSelectedColCount(slot0); got != 0 {
		t.Fatalf("cold count = %d, want 0", got)
	}
	// Write bit 0 of byte 0 at slot 0 of many rows in the same bank (and
	// hence the same mat group): column (mat 0, bitline 0) accumulates.
	var l bits.Line
	l[0] = 0x01
	const rows = 12
	for i := 0; i < rows; i++ {
		// Same bank: consecutive bank rows are Channels*Ranks*Banks apart
		// in the global row walk, i.e. 32 rows apart in line space / 64.
		line := uint64(i) * uint64(g.Banks()) * BlocksPerRow
		if _, err := s.Write(line, l); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.MaxSelectedColCount(slot0); got != rows {
		t.Fatalf("col count = %d, want %d", got, rows)
	}
	// A write to a different slot selects other bitlines: count 0... the
	// write itself lands there though, so write-free probe: slot 5 line in
	// the same row.
	if got := s.MaxSelectedColCount(slot5); got != 0 {
		t.Fatalf("unrelated slot col count = %d, want 0", got)
	}
	// Overwriting with zero clears the column.
	for i := 0; i < rows; i++ {
		line := uint64(i) * uint64(g.Banks()) * BlocksPerRow
		if _, err := s.Write(line, bits.Line{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.MaxSelectedColCount(slot0); got != 0 {
		t.Fatalf("cleared col count = %d, want 0", got)
	}
}

func TestRowLocationInvertsGlobalRow(t *testing.T) {
	g := DefaultGeometry()
	f := func(raw uint64) bool {
		globalRow := raw % g.Rows()
		loc := g.RowLocation(globalRow)
		return g.GlobalRow(loc) == globalRow && loc.Slot == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowLocationDecodesBack(t *testing.T) {
	g := DefaultGeometry()
	for _, gr := range []uint64{0, 1, 12345, g.Rows() - 1} {
		line := g.Encode(g.RowLocation(gr))
		loc := decodeLine(t, g, line)
		if loc != g.RowLocation(gr) {
			t.Fatalf("row %d: line %d decodes to row %d slot %d", gr, line, g.GlobalRow(loc), loc.Slot)
		}
	}
}

func TestResidentPrefillDensityAndCounters(t *testing.T) {
	s, err := NewStore(DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	s.SetResident(2, 7) // density 0.25
	s.EnsureRow(0)
	// Every block of the row now has content near density 0.25.
	ones := 0
	loc := s.geom.RowLocation(0)
	for loc.Slot = 0; loc.Slot < BlocksPerRow; loc.Slot++ {
		l := s.Read(loc)
		ones += bits.CountOnes(l[:])
	}
	// Structured level-2 resident data: one dense byte (p≈0.375) per
	// 8-byte word plus sparse background → overall density ≈ 0.06.
	density := float64(ones) / float64(BlocksPerRow*BlockSize*8)
	if density < 0.03 || density > 0.1 {
		t.Fatalf("resident density = %v, want ≈0.06", density)
	}
	// Counters must match a recount.
	if s.RowCounters(0) != s.RecountRow(0) {
		t.Fatal("prefill counters diverge from recount")
	}
	// And the worst wordline holds roughly density*512 LRS cells.
	max := s.MaxRowCounter(0)
	// The hot wordlines aggregate one dense byte from each of 64 blocks:
	// C ≈ 64 × 3 = 192 give or take.
	if max < 120 || max > 280 {
		t.Fatalf("max row counter = %d, want around 190", max)
	}
	// Bitline counts see the resident fill too.
	if s.MaxSelectedColCount(s.geom.RowLocation(0)) == 0 {
		t.Fatal("column counters ignored resident data")
	}
}

// TestResidentPrefillShiftedCounters checks the counters a prefill under
// the shifting schemes' transform builds beside the wordline counters: the
// tracked unshifted maximum equals the untracked 64-block reverse-shift
// scan, and the per-bitline column state equals a recount from the data.
func TestResidentPrefillShiftedCounters(t *testing.T) {
	for level := 1; level <= 3; level++ {
		s := residentStore(t, level, 11, "shifted")
		s.SetColumnTracking(true)
		// Rows 0..15 share mat group 0, so its columns sum 16 rows.
		for key := uint64(0); key < 16; key++ {
			s.EnsureRow(key)
			tracked := s.MaxRowCounterUnshifted(key)
			if scanned := scanUnshifted(s.rows[key]); tracked != scanned || tracked == 0 {
				t.Fatalf("level %d row %d: tracked unshifted max %d, scan %d", level, key, tracked, scanned)
			}
		}
		var recount colState
		for key, r := range s.rows {
			if key/uint64(s.geom.MatRows) != 0 {
				continue
			}
			for b := 0; b < BlocksPerRow; b++ {
				for m, c := range r.block(b) {
					for k := 0; k < 8; k++ {
						recount[m][b*8+k] += uint16(c >> k & 1)
					}
				}
			}
		}
		if g := s.cols[0]; g == nil || *groupCols(s, g) != recount {
			t.Fatalf("level %d: column state diverges from a recount of the data", level)
		}
	}
}

func TestResidentPrefillIncrementalAfterOverwrite(t *testing.T) {
	s, err := NewStore(DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	s.SetResident(2, 9)
	var sparse bits.Line
	sparse[0] = 0x01
	loc := decodeLine(t, s.geom, 5)
	s.WriteAt(loc, sparse)
	row := s.geom.GlobalRow(loc)
	if s.RowCounters(row) != s.RecountRow(row) {
		t.Fatal("counters diverge after overwriting resident data")
	}
	if s.Read(loc) != sparse {
		t.Fatal("overwrite lost")
	}
}

func TestResidentDisabledByDefault(t *testing.T) {
	s, err := NewStore(DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	s.EnsureRow(0)
	if s.Read(s.geom.RowLocation(0)) != (bits.Line{}) {
		t.Fatal("fresh device should stay all-HRS without SetResident")
	}
}

// TestStoreErrorsOnBadAddress checks the store's one line-keyed entry
// point: the other methods take a decoded location or global row, so an
// out-of-range line is rejected where it is decoded.
func TestStoreErrorsOnBadAddress(t *testing.T) {
	s, err := NewStore(DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []uint64{s.Geometry().Lines(), s.Geometry().Lines() + 1} {
		if _, err := s.Write(line, bits.Line{}); err == nil {
			t.Fatalf("Write at line %d, beyond capacity, should fail", line)
		}
	}
	if s.TotalWrites() != 0 || s.TouchedRows() != 0 {
		t.Fatal("a rejected write reached the store")
	}
}
