package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ladder/internal/tracing"
)

const chromeGolden = "testdata/chrome.golden"

// chromeCells are the degraded cells whose Chrome trace export the
// golden pins. Capacities 256 and 1024 make the span ring wrap, the
// fault rate makes writes retry, and the memory-bound workloads stall
// their cores.
var chromeCells = []struct {
	workload, scheme string
	capacity         int
}{
	{"lbm", SchemeHybrid, 4096},
	{"mcf", SchemeBaseline, 256},
	{"astar", SchemeEst, 4096},
	{"mix-1", SchemeSplitReset, 1024},
}

// chromeGoldenText runs each chrome cell in the degraded configuration
// with every transaction traced and renders the SHA-256 and length of
// its WriteChromeTrace output, one line per cell. It fails unless the
// cells between them wrap a ring, retry a write and stall a core, so
// the golden keeps covering those export paths.
func chromeGoldenText(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	var wrapped, retried, stalled bool
	for _, cc := range chromeCells {
		cfg := Config{
			Workload: cc.workload, Scheme: cc.scheme,
			InstrPerCore: 20_000, Seed: 3000,
			TraceSample: 1, TraceCapacity: cc.capacity,
		}
		cellConfigs[1].edit(&cfg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", cc.workload, cc.scheme, err)
		}
		var out bytes.Buffer
		if err := res.Trace.WriteChromeTrace(&out); err != nil {
			t.Fatalf("%s/%s: WriteChromeTrace: %v", cc.workload, cc.scheme, err)
		}
		wrapped = wrapped || res.Trace.Summary().Evicted > 0
		for _, s := range res.Trace.Recent(math.MaxInt) {
			retried = retried || s.Kind == tracing.KindWriteRetry
			stalled = stalled || s.Kind == tracing.KindCoreStall
		}
		fmt.Fprintf(&b, "%s %s capacity=%d bytes=%d sha256=%x\n",
			cc.workload, cc.scheme, cc.capacity, out.Len(), sha256.Sum256(out.Bytes()))
	}
	if !wrapped || !retried || !stalled {
		t.Fatalf("chrome cells lost coverage: ring wrapped %v, write retried %v, core stalled %v",
			wrapped, retried, stalled)
	}
	return b.Bytes()
}

// TestGoldenChromeTrace pins the exact bytes of the Chrome trace export
// for a few degraded cells, so a change to the encoder that is meant to
// be byte-compatible must leave every digest in place. Regenerate with:
// go test ./internal/sim -run GoldenChromeTrace -update
func TestGoldenChromeTrace(t *testing.T) {
	got := chromeGoldenText(t)
	if *updateGolden {
		if err := os.WriteFile(filepath.FromSlash(chromeGolden), got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.FromSlash(chromeGolden))
	if err != nil {
		t.Fatalf("reading %s (run with -update to create it): %v", chromeGolden, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			if i < len(wl) {
				t.Errorf("export diverges from %s at line %d:\n got: %s\nwant: %s", chromeGolden, i+1, gl[i], wl[i])
			} else {
				t.Errorf("extra line %d not in %s: %s", i+1, chromeGolden, gl[i])
			}
		}
	}
	if len(gl) < len(wl) {
		t.Errorf("output is shorter than %s", chromeGolden)
	}
}
