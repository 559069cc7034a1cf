package sim

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// TestCycleLoopAllocBudget guards the zero-allocation cycle loop: after
// the recycling pools warm up, the steady-state simulation must stay well
// under 2 heap allocations per simulated cycle (the seed code spent ~13).
// Regressions here mean a pool or scratch buffer stopped being reused.
func TestCycleLoopAllocBudget(t *testing.T) {
	w, _ := workload.ByName("8W3")
	chip, _, err := buildChip(Options{Workload: w, Policy: SpecMFLUSH, Cycles: 1, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pools: free lists, wheel buckets, bus buffers and issue
	// queue slots all reach steady capacity within a few thousand cycles.
	chip.Run(20000)

	const cycles = 20000
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	chip.Run(cycles)
	runtime.ReadMemStats(&after)

	allocs := after.Mallocs - before.Mallocs
	perCycle := float64(allocs) / float64(cycles)
	t.Logf("steady state: %d allocs over %d cycles (%.4f allocs/cycle)",
		allocs, cycles, perCycle)
	if perCycle > 2 {
		t.Fatalf("cycle loop allocates %.3f objects/cycle, budget is 2", perCycle)
	}
}

// TestOpenAllocBudget caps the bytes sim.Open — and a gang of one,
// which Run goes through — allocates for the paper's largest machine
// (8W3). Open is paid once per job; its dominant costs are the caches
// themselves, and the L2 prewarm must stream into the L2 rather than
// materialise its fill plan (which alone once tripled the per-job
// allocation).
func TestOpenAllocBudget(t *testing.T) {
	w, _ := workload.ByName("8W3")
	opt := Options{Workload: w, Policy: SpecMFLUSH, Cycles: 1, Seed: 1}
	const budget = 3 << 20
	for _, tc := range []struct {
		name string
		open func() error
	}{
		{"Open", func() error { _, err := Open(opt); return err }},
		{"OpenGang", func() error { _, err := OpenGang([]Options{opt}); return err }},
	} {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.open()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s(8W3) allocated %.2f MB", tc.name, float64(bytes)/(1<<20))
		if bytes > budget {
			t.Fatalf("%s(8W3) allocated %d bytes, budget is %d", tc.name, bytes, budget)
		}
	}
}

// fingerprint flattens every externally observable metric of a Result.
func fingerprint(r *Result) string {
	return fmt.Sprintf("ipc=%.12f committed=%v percore=%v flushes=%d wasted=%.9f flushed=%d hitlat=%s counters=%s",
		r.IPC, r.Committed, r.PerCore, r.Flushes, r.WastedEnergy(),
		r.Energy.FlushedTotal(), r.HitLatency.String(), r.Counters.String())
}

// TestRecyclingDeterminism runs identical Options twice across the
// policies that stress the uop/request/LoadInfo recycling differently
// (flush-heavy MFLUSH, squash-heavy FLUSH-S, baseline ICOUNT) and demands
// bit-identical results. Stale pool state would show up here as a
// divergence between the first and second run.
func TestRecyclingDeterminism(t *testing.T) {
	w, _ := workload.ByName("8W3")
	for _, spec := range []PolicySpec{SpecICOUNT, SpecFlushS(30), SpecFlushNS, SpecMFLUSH} {
		opt := Options{Workload: w, Policy: spec, Warmup: 8000, Cycles: 8000, Seed: 11}
		a := runOrDie(t, opt)
		b := runOrDie(t, opt)
		fa, fb := fingerprint(a), fingerprint(b)
		if fa != fb {
			t.Errorf("%s: nondeterministic result:\n  run1: %s\n  run2: %s", spec, fa, fb)
		}
	}
}
