package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.9, 3.7}, {1, 4},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 || xs[1] != 1 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestQuantileEdges(t *testing.T) {
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of an empty sample = %g, want NaN", got)
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("quantile of one value = %g, want 7", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of an odd sample = %g, want 3", got)
	}
}

// TestTailPercentile pins the p90 of 100 samples: it lies between the
// 90th and 91st smallest values, with ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got, want := quantile(xs, 0.9), 90.1; math.Abs(got-want) > 1e-9 {
		t.Errorf("p90 of 1..100 = %g, want %g", got, want)
	}
	if got := sum(xs); got != 5050 {
		t.Errorf("sum of 1..100 = %g, want 5050", got)
	}
}
