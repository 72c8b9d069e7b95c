package main

import (
	"testing"
	"time"
)

func TestTailRank(t *testing.T) {
	for _, tc := range []struct {
		n, want int
		pct     float64
	}{
		{1, 1, 50},
		{39, 20, 50}, // below forty samples: the median alone
		{40, 30, 75}, // ten beyond rank 30
		{100, 90, 90},
		{1000, 990, 99},
		{2842, 2832, 100 * 2832.0 / 2842},
	} {
		if got := tailRank(tc.n); got != tc.want {
			t.Errorf("tailRank(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if got := tailPercentile(tc.n); got != tc.pct {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.pct)
		}
		if tc.n >= 40 && tc.n-tailRank(tc.n) != 10 {
			t.Errorf("n=%d: %d samples beyond the tail, want 10", tc.n, tc.n-tailRank(tc.n))
		}
	}
	d := make([]time.Duration, 100)
	for i := range d {
		d[i] = time.Duration(i+1) * time.Millisecond // 1..100 ms
	}
	if got := tailMS(d); got != 90 {
		t.Errorf("tail of 1..100 ms = %v ms, want 90", got)
	}
	if got := tailMS(d[:39]); got != 20 {
		t.Errorf("tail of 1..39 ms = %v ms, want the median, 20", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	d := make([]time.Duration, 100)
	for i := range d {
		d[i] = time.Duration(i+1) * time.Millisecond // 1..100 ms
	}
	for _, tc := range []struct {
		bp   int
		want float64
	}{{5000, 50}, {9000, 90}, {9900, 99}, {9999, 100}} {
		if got := percentileMS(d, tc.bp); got != tc.want {
			t.Errorf("percentile %d bp = %v ms, want %v", tc.bp, got, tc.want)
		}
	}
}

func TestMedianFloat(t *testing.T) {
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}
