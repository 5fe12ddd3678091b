package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile stands only when at
// least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of sorted (ascending)
// and whether the percentile rule holds for it.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n-1-idx >= minBeyond
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// rangeSpread is (max − min) ÷ median, the spread printed beside a
// median of segment rates.
func rangeSpread(xs []float64) float64 {
	m := median(xs)
	if len(xs) == 0 || m == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return (s[len(s)-1] - s[0]) / m
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles of Python's
// statistics.quantiles(xs, n=4) (the exclusive method), which is what
// the acceptance rule for this benchmark is stated in. It needs two
// values.
func quartileSpread(xs []float64) (float64, bool) {
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m), true
}
