package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported tail
// percentile for it to mean anything.
const minTail = 10

// rankIndex is the 0-based index of the p-th percentile (0 < p <= 100)
// of n sorted samples by the nearest-rank method: the smallest sample
// with at least p% of all samples at or below it.
func rankIndex(n int, p float64) int {
	r := int(math.Ceil(p * float64(n) / 100))
	return min(max(r, 1), n) - 1
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rankIndex(len(sorted), p)]
}

// beyond counts the samples of n that rank strictly above the p-th
// percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// highestTail returns the highest percentile of ladder that keeps at
// least minTail of n samples beyond it, and false when none does.
func highestTail(n int, ladder []float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range ladder {
		if beyond(n, p) >= minTail && (!ok || p > best) {
			best, ok = p, true
		}
	}
	return best, ok
}

// median returns the middle value of xs (nearest-rank p50); xs is not
// modified. It returns NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// selfTime is a layer's own cost: the median time when requests enter
// at the layer, minus the medians of the layers below it that the
// layer calls.
func selfTime(outer float64, inner ...float64) float64 {
	for _, x := range inner {
		outer -= x
	}
	return outer
}

// micros converts durations to float microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}
