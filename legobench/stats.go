package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile:
// a p90 of 40 samples rests on four events and is noise, not a tail.
const minTail = 10

// percentile returns the q-quantile (0..1) of sorted by the nearest-rank
// method. It returns 0 for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// supported reports whether the q-quantile of an n-sample has at least
// minTail samples beyond it.
func supported(n int, q float64) bool {
	rank := int(math.Ceil(q * float64(n)))
	return n-rank >= minTail
}

// highestSupported returns the highest of the candidate quantiles that
// an n-sample supports, or 0 when none does.
func highestSupported(n int, candidates ...float64) float64 {
	best := 0.0
	for _, q := range candidates {
		if q > best && supported(n, q) {
			best = q
		}
	}
	return best
}

// median returns the middle of vals (mean of the middle two for an even
// count) without modifying vals.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}
