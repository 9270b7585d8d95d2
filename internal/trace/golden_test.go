package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var updateStreams = flag.Bool("update", false, "rewrite testdata/streams.golden from the current generator")

// streamGoldenLen is the number of accesses the golden digests per stream.
const streamGoldenLen = 20000

// goldenStreams renders one line per profile and seed: the SHA-256 digest
// of the first streamGoldenLen accesses, every field of each.
func goldenStreams(t *testing.T) []byte {
	names := make([]string, 0, len(Profiles))
	for name := range Profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	var out bytes.Buffer
	for _, name := range names {
		for _, seed := range []int64{1, 7919} {
			g, err := NewGenerator(Profiles[name], seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var rec [8 + 1 + 8]byte
			for i := 0; i < streamGoldenLen; i++ {
				a := g.Next()
				binary.LittleEndian.PutUint64(rec[0:], uint64(a.Gap))
				rec[8] = 0
				if a.Write {
					rec[8] = 1
				}
				binary.LittleEndian.PutUint64(rec[9:], a.Line)
				h.Write(rec[:])
				h.Write(a.Data[:])
			}
			fmt.Fprintf(&out, "%s seed=%d %x\n", name, seed, h.Sum(nil))
		}
	}
	return out.Bytes()
}

// TestGeneratorStreamsGolden pins the access stream of every profile at
// two seeds: gaps, read/write choices, addresses and written bytes. The
// streams drive every simulation golden, so the generator may get faster
// but must keep every draw. A deliberate change regenerates the file with:
// go test ./internal/trace -run GeneratorStreamsGolden -update
func TestGeneratorStreamsGolden(t *testing.T) {
	path := filepath.Join("testdata", "streams.golden")
	got := goldenStreams(t)
	if *updateStreams {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("stream differs from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("streams golden has %d lines, want %d", len(gl), len(wl))
	}
}
