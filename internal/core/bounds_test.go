package core

import (
	"slices"
	"testing"

	"ladder/internal/metrics"
)

// TestInstrumentBoundsStayFixed builds the run-level instruments in two
// registries, observes into every histogram, snapshots and merges the
// snapshots, and checks that the package-level bound slices every
// histogram shares still hold the bounds they were built with: no
// histogram, snapshot or merge writes them.
func TestInstrumentBoundsStayFixed(t *testing.T) {
	var snaps []metrics.Snapshot
	for range 2 {
		reg := metrics.NewRegistry()
		in := NewInstruments(reg)
		for _, v := range []float64{-600, 0, 3, 700, 1e9} {
			in.WriteServiceNs.Observe(v)
			in.ReadLatencyNs.Observe(v)
			in.CounterGap.Observe(v)
		}
		NewInstruments(reg) // fetches the existing histograms
		snaps = append(snaps, reg.Snapshot())
	}
	merged, err := snaps[0].Merge(snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	// Writes into a snapshot's or a merge's bounds must stay there.
	for _, snap := range append(snaps, merged) {
		for _, h := range snap.Histograms {
			for i := range h.Bounds {
				h.Bounds[i] = -1
			}
		}
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{MetricWriteServiceNs, writeServiceBounds, metrics.LinearBounds(32, 32, 24)},
		{MetricReadLatencyNs, readLatencyBounds, metrics.ExponentialBounds(1, 2, 24)},
		{MetricCounterGap, counterGapBounds, metrics.LinearBounds(-512, 64, 17)},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s bounds changed to %v", c.name, c.got)
		}
	}
}
