package main

import (
	"fmt"
	"math"
	"sort"
)

// minAbove is how many samples must lie above a reported percentile.
// With fewer, a single slow sample would decide the figure.
const minAbove = 10

// percentile is one latency summary: the value at the requested
// quantile, or at the highest quantile with minAbove samples above it
// when the sample count cannot support the requested one.
type percentile struct {
	Want  float64 `json:"want"`  // requested quantile, e.g. 0.95
	Got   float64 `json:"got"`   // quantile actually reported
	N     int     `json:"n"`     // samples
	Above int     `json:"above"` // samples strictly after the reported rank
	Value float64 `json:"value"`
}

// nearestRank returns the q-quantile of sorted xs by the nearest-rank
// rule and the number of samples after that rank.
func nearestRank(sorted []float64, q float64) (float64, int) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// percentileOf reports the want-quantile of xs, lowered to the highest
// quantile that leaves at least minAbove samples above it. The median
// is never lowered: it is reported as is from any non-empty sample.
func percentileOf(xs []float64, want float64) (percentile, error) {
	if len(xs) == 0 {
		return percentile{}, fmt.Errorf("percentile of no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p := percentile{Want: want, Got: want, N: len(s)}
	p.Value, p.Above = nearestRank(s, want)
	if want > 0.5 && p.Above < minAbove {
		// Highest rank r with n-r >= minAbove, as a quantile.
		r := len(s) - minAbove
		if r < (len(s)+1)/2 {
			r = (len(s) + 1) / 2
		}
		p.Got = float64(r) / float64(len(s))
		p.Value, p.Above = s[r-1], len(s)-r
	}
	return p, nil
}

// median returns the middle of xs (the mean of the two middle values
// for an even count). It is used for repeated measurements of one
// quantity, where interpolation is wanted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
