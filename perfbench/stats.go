package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether at least minBeyond samples lie beyond its rank. xs must be
// sorted ascending.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1], n-rank >= minBeyond
}

// minSamplesFor is the smallest sample count whose p-quantile has
// minBeyond samples beyond it.
func minSamplesFor(p float64) int {
	n := 1
	for {
		if _, ok := percentile(make([]float64, n), p); ok {
			return n
		}
		n++
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// frac is num/den, 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
