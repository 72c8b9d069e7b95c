package main

import (
	"math"
	"sort"
	"time"
)

// rank returns the 1-based nearest rank of percentile bp (basis points)
// in n sorted samples.
func rank(n, bp int) int {
	k := (bp*n + 9999) / 10000
	return max(k, 1)
}

// tailRank returns the 1-based rank, in n sorted samples, of the highest
// percentile with at least ten samples beyond it: the eleventh-largest
// sample, which is the nearest rank of percentile 100·(n−10)/n. Below
// forty samples it is the median's rank.
func tailRank(n int) int {
	if n < 40 {
		return rank(n, 5000)
	}
	return n - 10
}

// tailPercentile is the percentile tailRank(n) reads.
func tailPercentile(n int) float64 {
	if n < 40 {
		return 50
	}
	return 100 * float64(n-10) / float64(n)
}

// tailMS reads the tail from sorted durations, in milliseconds.
func tailMS(sorted []time.Duration) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return ms(sorted[tailRank(len(sorted))-1])
}

// percentileMS reads percentile bp from sorted durations, in milliseconds.
func percentileMS(sorted []time.Duration, bp int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return ms(sorted[rank(len(sorted), bp)-1])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortDurations(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// medianFloat returns the median of xs (the mean of the middle pair for an
// even count).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
