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

func TestRowBase(t *testing.T) {
	g := DefaultGeometry()
	if got := g.RowBase(67); got != 64 {
		t.Fatalf("RowBase(67) = %d, want 64", got)
	}
	if got := g.RowBase(64); got != 64 {
		t.Fatalf("RowBase(64) = %d, want 64", got)
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

func TestStoreReadUnwritten(t *testing.T) {
	s, err := NewStore(DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.Read(12345)
	if err != nil {
		t.Fatal(err)
	}
	if l != (bits.Line{}) {
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
	got, err := s.Read(100)
	if err != nil {
		t.Fatal(err)
	}
	if got != l {
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
	old, err := s.Write(7, b)
	if err != nil {
		t.Fatal(err)
	}
	if old != a {
		t.Fatal("second write should return first content")
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
		inc, err := s.RowCounters(probe)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := s.RecountRow(probe)
		if err != nil {
			t.Fatal(err)
		}
		if inc != rec {
			t.Fatalf("row %d: incremental counters diverge from recount", probe)
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
	got, err := s.MaxRowCounter(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 80 {
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
	if got, _ := s.RowWrites(3); got != 5 {
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
	// Unwritten memory: zero.
	if got, _ := s.MaxSelectedColCount(0); got != 0 {
		t.Fatalf("cold count = %d, want 0", got)
	}
	// Write bit 0 of byte 0 at slot 0 of many rows in the same bank (and
	// hence the same mat group): column (mat 0, bitline 0) accumulates.
	g := s.Geometry()
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
	got, err := s.MaxSelectedColCount(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != rows {
		t.Fatalf("col count = %d, want %d", got, rows)
	}
	// A write to a different slot selects other bitlines: count 0... the
	// write itself lands there though, so write-free probe: slot 5 line in
	// the same row.
	got, err = s.MaxSelectedColCount(5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("unrelated slot col count = %d, want 0", got)
	}
	// Overwriting with zero clears the column.
	for i := 0; i < rows; i++ {
		line := uint64(i) * uint64(g.Banks()) * BlocksPerRow
		if _, err := s.Write(line, bits.Line{}); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ = s.MaxSelectedColCount(0); got != 0 {
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

func TestRowBaseLineDecodesBack(t *testing.T) {
	g := DefaultGeometry()
	for _, gr := range []uint64{0, 1, 12345, g.Rows() - 1} {
		line := g.RowBaseLine(gr)
		loc, err := g.Decode(line)
		if err != nil {
			t.Fatal(err)
		}
		if g.GlobalRow(loc) != gr || loc.Slot != 0 {
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
	if err := s.EnsureRow(0); err != nil {
		t.Fatal(err)
	}
	// Every block of the row now has content near density 0.25.
	ones := 0
	for slot := uint64(0); slot < BlocksPerRow; slot++ {
		l, err := s.Read(slot)
		if err != nil {
			t.Fatal(err)
		}
		ones += bits.CountOnes(l[:])
	}
	// Structured level-2 resident data: one dense byte (p≈0.375) per
	// 8-byte word plus sparse background → overall density ≈ 0.06.
	density := float64(ones) / float64(BlocksPerRow*BlockSize*8)
	if density < 0.03 || density > 0.1 {
		t.Fatalf("resident density = %v, want ≈0.06", density)
	}
	// Counters must match a recount.
	inc, err := s.RowCounters(0)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.RecountRow(0)
	if err != nil {
		t.Fatal(err)
	}
	if inc != rec {
		t.Fatal("prefill counters diverge from recount")
	}
	// And the worst wordline holds roughly density*512 LRS cells.
	max, err := s.MaxRowCounter(0)
	if err != nil {
		t.Fatal(err)
	}
	// The hot wordlines aggregate one dense byte from each of 64 blocks:
	// C ≈ 64 × 3 = 192 give or take.
	if max < 120 || max > 280 {
		t.Fatalf("max row counter = %d, want around 190", max)
	}
	// Bitline counts see the resident fill too.
	col, err := s.MaxSelectedColCount(0)
	if err != nil {
		t.Fatal(err)
	}
	if col == 0 {
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
			line := s.geom.RowBaseLine(key)
			if err := s.EnsureRow(line); err != nil {
				t.Fatal(err)
			}
			tracked, err := s.MaxRowCounterUnshifted(line)
			if err != nil {
				t.Fatal(err)
			}
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
		if g := s.cols[0]; g == nil || *groupCols(g) != recount {
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
	if _, err := s.Write(5, sparse); err != nil {
		t.Fatal(err)
	}
	inc, err := s.RowCounters(5)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.RecountRow(5)
	if err != nil {
		t.Fatal(err)
	}
	if inc != rec {
		t.Fatal("counters diverge after overwriting resident data")
	}
	got, err := s.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if got != sparse {
		t.Fatal("overwrite lost")
	}
}

func TestResidentDisabledByDefault(t *testing.T) {
	s, err := NewStore(DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnsureRow(0); err != nil {
		t.Fatal(err)
	}
	l, err := s.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if l != (bits.Line{}) {
		t.Fatal("fresh device should stay all-HRS without SetResident")
	}
}

func TestStoreErrorsOnBadAddress(t *testing.T) {
	s, err := NewStore(DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	big := s.Geometry().Lines() + 1
	if _, err := s.Read(big); err == nil {
		t.Fatal("Read beyond capacity should fail")
	}
	if _, err := s.Write(big, bits.Line{}); err == nil {
		t.Fatal("Write beyond capacity should fail")
	}
	if _, err := s.RowCounters(big); err == nil {
		t.Fatal("RowCounters beyond capacity should fail")
	}
}
