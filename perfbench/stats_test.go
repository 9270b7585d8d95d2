package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestMinSamplesLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		want int
	}{
		{0.5, 20},
		{0.9, 100},
		{0.99, 1000},
	} {
		if got := minSamples(tc.p); got != tc.want {
			t.Errorf("minSamples(%g) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

func TestPercentileRefusesShortTails(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples has nine beyond it; want an error")
	}
	xs = append(xs, 1000)
	got, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	// Nearest rank 990 of 1..1000: exactly ten samples (991..1000) lie beyond.
	if got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if _, err := percentile(xs[:112], 0.9); err != nil {
		t.Errorf("p90 of the paper grid's 112 cells: %v", err)
	}
}

func TestPercentileCountsFailuresAsMisses(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1) // refused or failed jobs
	}
	got, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Errorf("p90 with 11%% failures = %v, want +Inf", got)
	}
	if got, _ := percentile(xs[:20], 0.5); !math.IsInf(got, 1) {
		t.Errorf("p50 with 11 of 20 failed = %v, want +Inf", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestChunksScaleBeforeTheyPool(t *testing.T) {
	slow := endToEnd{cellMs: []float64{8, 12}, jobMs: []float64{10}, jobs: 1, instructions: 4e6,
		wall: 4 * time.Second, slowdown: 2}
	fast := endToEnd{cellMs: []float64{5}, jobMs: []float64{6}, jobs: 1, instructions: 2e6,
		wall: time.Second, slowdown: 1}
	all := pool([]endToEnd{slow.scaled(), fast.scaled()})
	if want := []float64{4, 6, 5}; !reflect.DeepEqual(all.cellMs, want) {
		t.Errorf("cell ms = %v, want %v", all.cellMs, want)
	}
	if want := []float64{5, 6}; !reflect.DeepEqual(all.jobMs, want) {
		t.Errorf("job ms = %v, want %v", all.jobMs, want)
	}
	// The slow chunk's 4 s count as 2 s: 6e6 instructions in 3 s.
	if all.wall != 3*time.Second || all.instructions != 6e6 || all.jobs != 2 {
		t.Errorf("pooled wall %v, instructions %d, jobs %d; want 3s, 6000000, 2", all.wall, all.instructions, all.jobs)
	}
	if slow.cellMs[0] != 8 {
		t.Error("scaled modified the chunk it was called on")
	}
}
