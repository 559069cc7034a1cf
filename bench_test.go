package mflush

// One benchmark per table/figure of the paper's evaluation. Each runs the
// corresponding experiment harness at reduced (Quick) scale and reports
// the headline metric the paper states, so `go test -bench=.` regenerates
// the whole evaluation and prints the reproduced numbers:
//
//	BenchmarkFigure2...  speedup_avg_pct   (paper: +22, max +93)
//	BenchmarkFigure3...  speedup_4core_pct (paper: -9)
//	BenchmarkFigure4...  p90 growth        (paper: dispersion grows)
//	BenchmarkFigure5...  best-trigger IPC spread
//	BenchmarkFigure8...  mflush_vs_s100_pct (paper: ~-2)
//	BenchmarkFigure11... energy_saving_pct  (paper: ~+20)
//
// Full-scale numbers are recorded in EXPERIMENTS.md and regenerated with
// cmd/mflushbench.

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/metrics"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

func benchConfig() experiments.Config { return experiments.Quick }

func BenchmarkFigure2SingleCoreFlush(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, avg, err := experiments.Figure2(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		max := 0.0
		for _, r := range rows {
			if r.Speedup > max {
				max = r.Speedup
			}
		}
		b.ReportMetric(avg*100, "speedup_avg_pct")
		b.ReportMetric(max*100, "speedup_max_pct")
	}
}

func BenchmarkFigure3MulticoreTrend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure3(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].AvgSpeedup*100, "speedup_1core_pct")
		b.ReportMetric(rows[len(rows)-1].AvgSpeedup*100, "speedup_4core_pct")
	}
}

func BenchmarkFigure4HitTimeDispersion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure4(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Mean, "mean_1core_cycles")
		b.ReportMetric(rows[len(rows)-1].Mean, "mean_4core_cycles")
		b.ReportMetric(float64(rows[len(rows)-1].P90), "p90_4core_cycles")
		b.ReportMetric(rows[len(rows)-1].Frac20to70*100, "frac20to70_4core_pct")
	}
}

func BenchmarkFigure5TriggerSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure5(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		// Report the spread between the best and worst Detection Moment
		// on 8W3: a large spread is what makes the trigger choice
		// matter.
		best, worst := 0.0, 1e9
		for _, r := range rows {
			if r.Workload != "8W3" {
				continue
			}
			if r.IPC > best {
				best = r.IPC
			}
			if r.IPC < worst {
				worst = r.IPC
			}
		}
		b.ReportMetric((best/worst-1)*100, "trigger_spread_pct")
	}
}

func BenchmarkFigure8PolicyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure8(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		ic, s30, s100, mf := experiments.Figure8Averages(rows)
		b.ReportMetric((mf/s100-1)*100, "mflush_vs_s100_pct")
		b.ReportMetric((s30/ic-1)*100, "s30_vs_icount_pct")
		b.ReportMetric(mf, "mflush_avg_ipc")
	}
}

func BenchmarkFigure11WastedEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure11(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		_, _, _, saving := experiments.Figure11Averages(rows)
		b.ReportMetric(saving*100, "mflush_saving_vs_s100_pct")
	}
}

func BenchmarkAblationMCRegHistory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationMCRegHistory(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		// Report the deepest-history gain over the published design on
		// the contended workload.
		var h1, h8 float64
		for _, r := range rows {
			if r.Workload != "8W3" {
				continue
			}
			switch r.Variant {
			case "MCReg history 1":
				h1 = r.IPC
			case "MCReg history 8":
				h8 = r.IPC
			}
		}
		b.ReportMetric((h8/h1-1)*100, "history8_vs_1_pct")
	}
}

func BenchmarkAblationResponseAction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationResponseAction(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		var stall, flush float64
		for _, r := range rows {
			if r.Workload != "2W3" {
				continue
			}
			switch r.Variant {
			case "STALL-S30":
				stall = r.IPC
			case "FLUSH-S30":
				flush = r.IPC
			}
		}
		b.ReportMetric((flush/stall-1)*100, "flush_vs_stall_pct")
	}
}

func BenchmarkAblationMSHR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationMSHR(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].IPC, "mshr4_ipc")
		b.ReportMetric(rows[len(rows)-1].IPC, "mshr32_ipc")
	}
}

func BenchmarkAblationRegReserve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationRegReserve(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		var shared, partitioned float64
		for _, r := range rows {
			switch r.Variant {
			case "ICOUNT reserve 0":
				shared = r.IPC
			case "ICOUNT reserve 96":
				partitioned = r.IPC
			}
		}
		b.ReportMetric((partitioned/shared-1)*100, "partition_vs_shared_pct")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// cycles per wall-clock second for the 4-core machine.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, _ := workload.ByName("8W3")
	const cycles = 20000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Options{
			Workload: w, Policy: sim.SpecMFLUSH,
			Cycles: cycles, Seed: uint64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cycles*b.N)/b.Elapsed().Seconds(), "sim_cycles/s")
}

// BenchmarkGangCyclesPerSec measures aggregate gang throughput:
// simulated cycles per wall-clock second summed over a width-4 policy
// sweep (the four paper policies over one workload and seed) run as one
// lockstep GangSession. Compare against BenchmarkSimulatorThroughput
// × width for the solo aggregate: gang gains come from shared
// instruction synthesis on any machine, plus
// member-parallel stepping when GOMAXPROCS allows.
func BenchmarkGangCyclesPerSec(b *testing.B) {
	w, _ := workload.ByName("8W3")
	const cycles = 20000
	policies := []sim.PolicySpec{sim.SpecICOUNT, sim.SpecFlushNS, sim.SpecFlushS(30), sim.SpecMFLUSH}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := make([]sim.Options, len(policies))
		for m, p := range policies {
			opts[m] = sim.Options{
				Workload: w, Policy: p,
				Cycles: cycles, Seed: uint64(i + 1),
			}
		}
		if _, err := sim.RunGang(opts); err != nil {
			b.Fatal(err)
		}
	}
	agg := float64(cycles) * float64(len(policies)) * float64(b.N)
	b.ReportMetric(agg/b.Elapsed().Seconds(), "sim_cycles/s")
	b.ReportMetric(float64(len(policies)), "gang_width")
}

// BenchmarkSingleCoreSim measures the single-core configuration.
func BenchmarkSingleCoreSim(b *testing.B) {
	w, _ := workload.ByName("2W1")
	const cycles = 20000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Options{
			Workload: w, Policy: sim.SpecICOUNT,
			Cycles: cycles, Seed: uint64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cycles*b.N)/b.Elapsed().Seconds(), "sim_cycles/s")
}

// BenchmarkMetricsUpdate measures the per-sample cost of the metric
// update paths a running simulation hits — a counter bump, a gauge set
// and a histogram observation. It must stay allocation-free: updates
// run on simulating goroutines at interval-sample rate.
func BenchmarkMetricsUpdate(b *testing.B) {
	r := metrics.NewRegistry()
	c := r.Counter("mflush_bench_events_total", "bench")
	g := r.Gauge("mflush_bench_depth", "bench")
	h := r.Histogram("mflush_bench_latency_seconds", "bench", metrics.DefBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(float64(i))
		h.Observe(float64(i%1000) / 1e6)
	}
}

// BenchmarkMetricsScrape measures a full /metrics exposition pass over
// a registry the size of the daemon's (a few dozen families, labeled
// children, histograms). The write path reuses one scratch buffer, so
// allocations must stay O(1) — independent of scrape count and family
// count — and a scrape must stay cheap enough to run every few seconds
// against a live fleet.
func BenchmarkMetricsScrape(b *testing.B) {
	r := metrics.NewRegistry()
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("mflush_bench_family_%02d", i)
		switch i % 3 {
		case 0:
			r.Counter(name+"_total", "bench").Add(uint64(i))
		case 1:
			v := r.GaugeVec(name, "bench", "worker")
			for j := 0; j < 4; j++ {
				v.WithLabelValues(fmt.Sprintf("w%d", j)).Set(float64(j))
			}
		default:
			h := r.Histogram(name+"_seconds", "bench", metrics.DefBuckets)
			for j := 0; j < 100; j++ {
				h.Observe(float64(j) / 1e3)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
