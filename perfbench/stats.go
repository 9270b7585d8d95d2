package main

import (
	"fmt"
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported percentile.
// Fewer would make the percentile a reading of a handful of outliers.
const tailBeyond = 10

// minSamples returns the smallest sample count for which percentile p
// (in (0,1)) has at least tailBeyond samples beyond it: p90 needs 100,
// p99 needs 1000. p50 is held to the same rule, so it needs 20.
func minSamples(p float64) int {
	for n := 1; ; n++ {
		if n-rank(p, n) >= tailBeyond {
			return n
		}
	}
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples. The epsilon keeps 0.99*1000 from rounding up to 991.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile p of xs, or an error
// when fewer than tailBeyond samples lie beyond it. xs is not modified.
// +Inf samples (refused or failed operations) sort last, so they count
// as missing any latency limit.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || n-rank(p, n) < tailBeyond {
		return 0, fmt.Errorf("p%g needs %d samples for %d beyond it, have %d", p*100, minSamples(p), tailBeyond, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, n)-1], nil
}

// median is the plain middle value (mean of the two middle values for
// an even count), used for repeated set-up and probe timings where the
// tail rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
