package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileKeepsTenSamplesAbove(t *testing.T) {
	for _, tc := range []struct {
		n         int
		want      float64
		got       float64
		value     float64
		above     int
		lowered   bool
		wantAbove int
	}{
		{n: 288, want: 0.95, value: 274, wantAbove: 14},                // rank ceil(273.6)
		{n: 200, want: 0.95, value: 190, wantAbove: 10},                // exactly ten above: kept
		{n: 199, want: 0.95, value: 189, wantAbove: 10, lowered: true}, // nine above: lowered one rank
		{n: 23, want: 0.95, value: 13, wantAbove: 10, lowered: true},
		{n: 5, want: 0.95, value: 3, wantAbove: 2, lowered: true}, // never below the median
		{n: 23, want: 0.5, value: 12, wantAbove: 11},
	} {
		p, err := percentileOf(seq(tc.n), tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if p.Value != tc.value || p.Above != tc.wantAbove || p.N != tc.n {
			t.Errorf("n=%d q=%v: got value %v above %d n %d, want value %v above %d",
				tc.n, tc.want, p.Value, p.Above, p.N, tc.value, tc.wantAbove)
		}
		if lowered := p.Got != tc.want; lowered != tc.lowered {
			t.Errorf("n=%d q=%v: reported quantile %v, lowered=%v want %v", tc.n, tc.want, p.Got, lowered, tc.lowered)
		}
		if tc.lowered && math.Abs(p.Got-p.Value/float64(tc.n)) > 1e-12 {
			t.Errorf("n=%d: reported quantile %v does not name rank %v", tc.n, p.Got, p.Value)
		}
	}
	if _, err := percentileOf(nil, 0.5); err == nil {
		t.Error("percentile of no samples: want error")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}
