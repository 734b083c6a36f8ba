package main

import (
	"math"
	"sort"
)

// inf marks a (report, receiver) pair that was never delivered: it counts
// as infinitely late, so it sits above every measured latency in the
// percentile ranking instead of being dropped from the sample.
var inf = math.Inf(1)

// percentile returns the q-quantile (0 < q <= 1) of xs by the nearest-rank
// rule: the smallest value with at least ceil(q·n) values at or below it.
// xs is sorted in place. Entries equal to +Inf (undelivered pairs) rank
// above every finite value, so a p99 over a sample with more than 1%
// undelivered pairs is itself +Inf. An empty sample yields NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// finite maps +Inf (an infinitely late pair) to the largest float64, which
// JSON can carry, and NaN (no sample at all) to 0.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
