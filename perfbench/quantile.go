package main

import (
	"fmt"
	"math"
	"sort"
)

// quant is one exact quantile read from raw samples.
type quant struct {
	p      float64
	value  float64
	n      int  // samples
	beyond int  // samples ranked above the quantile
	ok     bool // at least minBeyond samples rank above it
}

func (q quant) String() string {
	return fmt.Sprintf("p%g = %.6g (n=%d, %d beyond)", 100*q.p, q.value, q.n, q.beyond)
}

// minBeyond is how many samples must rank above a percentile before it is
// reported.
const minBeyond = 10

// quantileOf returns the nearest-rank p-quantile (0 < p < 1) of xs, with
// ok set only when at least minBeyond samples rank above it. xs is
// sorted in place.
func quantileOf(xs []float64, p float64) quant {
	n := len(xs)
	if n == 0 {
		return quant{p: p}
	}
	sort.Float64s(xs)
	rank := max(int(math.Ceil(p*float64(n))), 1) // 1-based
	return quant{p: p, value: xs[rank-1], n: n, beyond: n - rank, ok: n-rank >= minBeyond}
}

// median of xs (sorted in place); 0 for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
