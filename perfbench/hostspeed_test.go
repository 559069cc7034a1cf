package main

import (
	"math"
	"testing"
)

// TestEndToEndScaling pins how host-speed scaling reaches each metric:
// campaigns (and set-ups without a reference) are divided by the
// probe's factor, the rate is multiplied by it, and cached resubmits and
// referenced set-ups are scaled by their reference operations. Memory
// metrics are left as measured.
func TestEndToEndScaling(t *testing.T) {
	rounds := []roundResult{{
		setups: []float64{4}, campaign: 10, jobs: 2, cycles: 1000,
		cached:        []float64{2, 2, 2, 6},
		cachedRef:     []float64{0.5, 0.5, 0.5, 0.5},
		refCachedSecs: 0.25,
		allocBytes:    6e6, peakHeap: 5e6,
	}}
	m := endToEnd(rounds, 2)
	for name, want := range map[string]float64{
		"setup_s":               2,
		"campaign_s":            5,
		"sim_cycles_per_s":      200,
		"cached_campaign_p50_s": 1,
		"cached_campaign_p90_s": 2.4,
		"alloc_mb_per_job":      3,
		"peak_heap_mb":          5,
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}

	rounds[0].setupRefs = []float64{0.5}
	rounds[0].refSetupSecs = 0.25
	if got := endToEnd(rounds, 2)["setup_s"].Value; got != 2 {
		t.Errorf("referenced setup_s = %g, want 4 × 0.25 ÷ 0.5 = 2", got)
	}
}

// TestScaledUsesBlockMedians checks that each time is scaled by the
// median reference of its own block of refBlock operations.
func TestScaledUsesBlockMedians(t *testing.T) {
	n := refBlock + 2
	times := make([]float64, n)
	refs := make([]float64, n)
	for i := range times {
		times[i], refs[i] = 1, 1
	}
	refs[0] = 100      // one slow reference: the block median ignores it
	refs[refBlock] = 2 // the last block is {2, 4}: median 3
	refs[refBlock+1] = 4
	got := scaled(times, refs, 6)
	for i, g := range got {
		want := 6.0
		if i >= refBlock {
			want = 2
		}
		if g != want {
			t.Errorf("scaled[%d] = %g, want %g", i, g, want)
		}
	}
}

func TestPeakHeapIsTheHighestRound(t *testing.T) {
	var rounds []roundResult
	for _, mb := range []uint64{40, 70, 50} {
		rounds = append(rounds, roundResult{setups: []float64{1}, campaign: 1, jobs: 1,
			cached: []float64{1}, cachedRef: []float64{1}, refCachedSecs: 1, peakHeap: mb * 1e6})
	}
	if got := endToEnd(rounds, 1)["peak_heap_mb"].Value; got != 70 {
		t.Errorf("peak_heap_mb = %g, want 70", got)
	}
}
