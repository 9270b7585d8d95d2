package trace

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"ladder/internal/bits"
	"ladder/internal/compress"
)

func TestAllProfilesValid(t *testing.T) {
	for name, p := range Profiles {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("%s: Name field %q mismatched", name, p.Name)
		}
	}
}

func TestProfileValidateRejectsBad(t *testing.T) {
	good := Profiles["astar"]
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.RPKI, p.WPKI = 0, 0 },
		func(p *Profile) { p.RPKI = -1 },
		func(p *Profile) { p.PageLocality = 1.5 },
		func(p *Profile) { p.WorkingSetPages = 0 },
		func(p *Profile) { p.HotFraction = 0 },
		func(p *Profile) { p.OnesDensity = -0.1 },
		func(p *Profile) { p.Clustering = 2 },
		func(p *Profile) { p.Compressibility = -1 },
	}
	for i, mod := range cases {
		p := good
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestTable3MixesComplete(t *testing.T) {
	if len(Mixes) != 8 {
		t.Fatalf("have %d mixes, want 8", len(Mixes))
	}
	for name, members := range Mixes {
		if len(members) != 4 {
			t.Errorf("%s has %d members, want 4", name, len(members))
		}
		for _, m := range members {
			if _, err := Lookup(m); err != nil {
				t.Errorf("%s member %s: %v", name, m, err)
			}
		}
	}
	if got := len(AllWorkloads()); got != 16 {
		t.Fatalf("AllWorkloads = %d entries, want 16", got)
	}
}

func TestMixProfilesSingleAndMulti(t *testing.T) {
	ps, err := MixProfiles("lbm")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0].Name != "lbm" {
		t.Fatalf("single workload resolved to %v", ps)
	}
	ps, err = MixProfiles("mix-7")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"astar", "lbm", "bwavs", "mcf"}
	if len(ps) != 4 {
		t.Fatalf("mix resolved to %d profiles", len(ps))
	}
	for i, p := range ps {
		if p.Name != want[i] {
			t.Errorf("mix-7[%d] = %s, want %s", i, p.Name, want[i])
		}
	}
	if _, err := MixProfiles("nonesuch"); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	p := Profiles["astar"]
	g1, err := NewGenerator(p, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(p, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("access %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

func TestGeneratorSeedChangesStream(t *testing.T) {
	p := Profiles["astar"]
	g1, _ := NewGenerator(p, 1, 0)
	g2, _ := NewGenerator(p, 2, 0)
	same := 0
	for i := 0; i < 200; i++ {
		if g1.Next() == g2.Next() {
			same++
		}
	}
	if same > 150 {
		t.Fatalf("streams under different seeds nearly identical (%d/200)", same)
	}
}

func TestGeneratorWriteFraction(t *testing.T) {
	p := Profiles["lbm"] // write-heavy
	g, err := NewGenerator(p, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	writes, n := 0, 20000
	for i := 0; i < n; i++ {
		if g.Next().Write {
			writes++
		}
	}
	want := p.WPKI / (p.RPKI + p.WPKI)
	got := float64(writes) / float64(n)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("write fraction %.3f, want ~%.3f", got, want)
	}
}

func TestGeneratorMeanGap(t *testing.T) {
	p := Profiles["mcf"]
	g, err := NewGenerator(p, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	total, n := 0.0, 20000
	for i := 0; i < n; i++ {
		total += float64(g.Next().Gap)
	}
	want := 1000 / (p.RPKI + p.WPKI)
	got := total / float64(n)
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("mean gap %.1f, want ~%.1f", got, want)
	}
}

func TestGeneratorFootprintAndOffset(t *testing.T) {
	p := Profiles["libq"]
	const base = 1 << 20
	g, err := NewGenerator(p, 5, base)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		a := g.Next()
		page := a.Line / BlocksPerPage
		if page < base || page >= base+uint64(p.WorkingSetPages) {
			t.Fatalf("access %d outside footprint: page %d", i, page)
		}
	}
}

func TestGeneratorOnesDensityTracksProfile(t *testing.T) {
	for _, name := range []string{"libq", "lbm"} {
		p := Profiles[name]
		p.Compressibility = 0 // isolate the density path
		g, err := NewGenerator(p, 6, 0)
		if err != nil {
			t.Fatal(err)
		}
		ones, lines := 0, 0
		for lines < 500 {
			a := g.Next()
			if !a.Write {
				continue
			}
			ones += a.Data.Ones()
			lines++
		}
		got := float64(ones) / float64(lines*bits.LineSize*8)
		if math.Abs(got-p.OnesDensity) > 0.12 {
			t.Fatalf("%s: ones density %.3f, want ~%.2f", name, got, p.OnesDensity)
		}
	}
}

func TestGeneratorCompressibilityTracksProfile(t *testing.T) {
	p := Profiles["libq"] // 0.85 compressible
	g, err := NewGenerator(p, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	comp, lines := 0, 0
	for lines < 1000 {
		a := g.Next()
		if !a.Write {
			continue
		}
		if compress.Compressible(a.Data[:]) {
			comp++
		}
		lines++
	}
	got := float64(comp) / float64(lines)
	if got < p.Compressibility-0.1 {
		t.Fatalf("compressible fraction %.3f below profile %.2f", got, p.Compressibility)
	}
}

func TestGeneratorClusteringCreatesHotBytes(t *testing.T) {
	p := Profiles["astar"] // clustering 0.75
	p.Compressibility = 0
	g, err := NewGenerator(p, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Hot positions should push the worst-byte count well above the
	// average-byte count.
	worst, avg, lines := 0.0, 0.0, 0
	for lines < 500 {
		a := g.Next()
		if !a.Write {
			continue
		}
		worst += float64(bits.WorstByte(a.Data[:]))
		avg += float64(a.Data.Ones()) / bits.LineSize
		lines++
	}
	if worst/avg < 2 {
		t.Fatalf("clustering ineffective: worst/avg byte ratio %.2f", worst/avg)
	}
}

func TestPageHotPositionsStablePerPage(t *testing.T) {
	a := pageHotPositions(42, 7)
	b := pageHotPositions(42, 7)
	if a != b {
		t.Fatal("hot positions not deterministic")
	}
	c := pageHotPositions(43, 7)
	if a == c {
		t.Fatal("hot positions identical across pages")
	}
	// Exactly one hot position per chip group.
	for chip := 0; chip < bits.ChipGroups; chip++ {
		n := 0
		for k := 0; k < 8; k++ {
			if a[chip*8+k] {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("chip %d has %d hot positions, want 1", chip, n)
		}
	}
}

func TestNewGeneratorRejectsInvalidProfile(t *testing.T) {
	if _, err := NewGenerator(Profile{}, 1, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestTraceRecordReplayRoundTrip(t *testing.T) {
	g, err := NewGenerator(Profiles["astar"], 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Capture the expected stream, then record the same stream again.
	expectGen, _ := NewGenerator(Profiles["astar"], 5, 0)
	var want []Access
	for i := 0; i < 500; i++ {
		want = append(want, expectGen.Next())
	}
	var buf bytes.Buffer
	if err := Record(&buf, g, "astar", 5, 500); err != nil {
		t.Fatal(err)
	}
	rep, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workload != "astar" || rep.Seed != 5 || rep.Len() != 500 {
		t.Fatalf("header mismatch: %q %d %d", rep.Workload, rep.Seed, rep.Len())
	}
	for i, w := range want {
		if got := rep.Next(); got != w {
			t.Fatalf("access %d diverged", i)
		}
	}
	// The replayer loops.
	if got := rep.Next(); got != want[0] {
		t.Fatal("replayer did not loop to the start")
	}
}

func TestTraceLoadRejectsBadInput(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("junk should fail")
	}
	var buf bytes.Buffer
	if err := Record(&buf, mustGen(t), "x", 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("empty trace should fail")
	}
}

func TestTraceLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.trace")); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestReplayerMaxLine(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "x", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Access{Line: 7}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Access{Line: 123}); err != nil {
		t.Fatal(err)
	}
	if w.count != 2 {
		t.Fatalf("count = %d", w.count)
	}
	rep, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.MaxLine(); got != 123 {
		t.Fatalf("MaxLine = %d", got)
	}
}

func mustGen(t *testing.T) *Generator {
	t.Helper()
	g, err := NewGenerator(Profiles["astar"], 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
