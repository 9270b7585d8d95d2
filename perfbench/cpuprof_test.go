package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOfFunc(t *testing.T) {
	for name, want := range map[string]string{
		"ladder/internal/memctrl.(*Controller).Tick": "memctrl",
		"ladder/internal/metrics/promcheck.Lint":     "metrics",
		"ladder/perfbench.doJob":                     "bench",
		"runtime.mallocgc":                           "",
		"encoding/json.Marshal":                      "",
	} {
		if got := layerOfFunc(name); got != want {
			t.Errorf("layerOfFunc(%q) = %q, want %q", name, got, want)
		}
	}
}

var spinSink uint64

// spinForProfile burns CPU in this package. It touches no shared memory
// inside the loop, so the race detector's runtime stays out of the
// samples.
func spinForProfile(d time.Duration) {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e6; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

func TestCPUByLayerParsesARealProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	byLayer, err := cpuByLayer(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range byLayer {
		total += v
	}
	if total <= 0 || byLayer["bench"] < total/2 {
		t.Errorf("profile by layer = %v; want most CPU time in bench", byLayer)
	}
}
