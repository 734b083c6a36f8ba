package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {1, 10}} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
}

// An undelivered pair is infinitely late: it ranks above every measured
// latency, so it can move a percentile but never be skipped.
func TestPercentileCountsUndeliveredAsInfinitelyLate(t *testing.T) {
	lat := make([]float64, 0, 200)
	for i := 1; i <= 198; i++ {
		lat = append(lat, float64(i))
	}
	// 2 of 200 lost: p99 is the 198th value, the last measured one.
	withLoss := append(append([]float64(nil), lat...), inf, inf)
	if got := percentile(withLoss, 0.99); got != 198 {
		t.Errorf("p99 with 1%% lost = %v, want 198", got)
	}
	// 3 of 200 lost: more than 1% never arrived, so p99 is infinite.
	withMore := append(append([]float64(nil), lat[:197]...), inf, inf, inf)
	if got := percentile(withMore, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 1.5%% lost = %v, want +Inf", got)
	}
	// The median ignores the tail either way.
	if got := percentile(withMore, 0.5); got != 100 {
		t.Errorf("p50 = %v, want 100", got)
	}
	if got := finite(percentile(withMore, 0.99)); got != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %v, want MaxFloat64", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}
