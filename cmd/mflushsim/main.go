// Command mflushsim runs one simulation: a workload under an IFetch
// policy on the paper's machine, printing throughput, latency and energy
// statistics.
//
// Usage:
//
//	mflushsim -workload 2W3 -policy MFLUSH [-cycles N] [-warmup N] [-seed N] [-cores N] [-name S] [-v]
//	mflushsim -workload 8W3 -policy MFLUSH -interval 5000 [-out series.csv] [-json]
//
// Policies: ICOUNT, FLUSH-S<delay>, FLUSH-NS, STALL-S<delay>, MFLUSH,
// MFLUSH-H<depth>.
//
// With -interval N the run additionally emits a time series: one sample
// every N measured cycles (CSV by default, JSONL with -json), streamed
// as the simulation advances. The series goes to -out when given (the
// normal summary still prints to stdout) and replaces the summary on
// stdout otherwise.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sampleCSVHeader names the columns writeSampleCSV emits. MCReg state is
// folded to its min/max across cores and banks (blank for non-MFLUSH
// policies); the full per-bank state is available with -json.
const sampleCSVHeader = "cycle,measured_cycles,ipc,interval_ipc,committed_total,flushes," +
	"flushed_instructions,wasted_energy_units,l2_hits,l2_misses,mcreg_min,mcreg_max"

// writeSampleCSV renders one time-series row.
func writeSampleCSV(w io.Writer, p sim.SamplePoint) {
	var total uint64
	for _, n := range p.Committed {
		total += n
	}
	mcregMin, mcregMax := "", ""
	if lo, hi, ok := p.MCRegBounds(); ok {
		mcregMin, mcregMax = fmt.Sprint(lo), fmt.Sprint(hi)
	}
	fmt.Fprintf(w, "%d,%d,%.6f,%.6f,%d,%d,%d,%.3f,%d,%d,%s,%s\n",
		p.Cycle, p.MeasuredCycles, p.IPC, p.IntervalIPC, total, p.Flushes,
		p.FlushedInsts, p.WastedEnergy, p.L2Hits, p.L2Misses, mcregMin, mcregMax)
}

// loadTraces reads a comma-separated list of trace files, each in any
// encoding trace.LoadScenario sniffs, and returns every file's threads
// in list order.
func loadTraces(list string) ([][]isa.Inst, error) {
	var threads [][]isa.Inst
	for _, path := range strings.Split(list, ",") {
		scen, err := trace.LoadScenario(strings.TrimSpace(path))
		if err != nil {
			return nil, err
		}
		tt, err := scen.ThreadTraces()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		threads = append(threads, tt...)
	}
	return threads, nil
}

func main() {
	wl := flag.String("workload", "2W3", "workload name (xWy from the paper, or 8W-bzip2-twolf)")
	pol := flag.String("policy", "MFLUSH", "IFetch policy")
	cycles := flag.Uint64("cycles", 200000, "measured cycles")
	warmup := flag.Uint64("warmup", 300000, "warm-up cycles")
	seed := flag.Uint64("seed", 1, "synthesis seed")
	cores := flag.Int("cores", 0, "core count override (0: derive from workload)")
	verbose := flag.Bool("v", false, "print all event counters")
	asJSON := flag.Bool("json", false, "emit the result as JSON")
	traces := flag.String("traces", "", "comma-separated trace files (from mflushtrace: MFSCEN1, JSONL or MFTRACE1) to replay instead of -workload")
	name := flag.String("name", "", "workload name to report (replayed traces otherwise report replay-N)")
	interval := flag.Uint64("interval", 0, "emit a time-series sample every N measured cycles (0: off)")
	out := flag.String("out", "", "time-series destination file (default: stdout, replacing the summary)")
	flag.Parse()

	var w workload.Workload
	var threadTraces [][]isa.Inst
	if *traces != "" {
		var err error
		if threadTraces, err = loadTraces(*traces); err != nil {
			fmt.Fprintf(os.Stderr, "mflushsim: %v\n", err)
			os.Exit(1)
		}
	} else {
		var ok bool
		w, ok = workload.ByName(*wl)
		if !ok {
			fmt.Fprintf(os.Stderr, "mflushsim: unknown workload %q; valid names:\n", *wl)
			for _, x := range workload.All() {
				fmt.Fprintf(os.Stderr, "  %s\n", x.Describe())
			}
			os.Exit(2)
		}
	}
	spec, err := sim.ParseSpec(*pol)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mflushsim: %v\n", err)
		os.Exit(2)
	}

	opt := sim.Options{
		Workload: w, Policy: spec, Name: *name,
		Cycles: *cycles, Warmup: *warmup, Seed: *seed, Cores: *cores,
		ThreadTraces: threadTraces,
		Interval:     *interval,
	}

	// Stream the time series as the simulation takes each sample.
	seriesToStdout := *interval > 0 && *out == ""
	var seriesW *bufio.Writer
	if *interval > 0 {
		dst := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mflushsim: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			dst = f
		}
		seriesW = bufio.NewWriter(dst)
		defer seriesW.Flush()
		if !*asJSON {
			fmt.Fprintln(seriesW, sampleCSVHeader)
		}
		enc := json.NewEncoder(seriesW)
		opt.OnSample = func(p sim.SamplePoint) {
			if *asJSON {
				_ = enc.Encode(p) // one JSON object per line (JSONL)
			} else {
				writeSampleCSV(seriesW, p)
			}
			seriesW.Flush()
		}
	}

	res, err := sim.Run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mflushsim: %v\n", err)
		os.Exit(1)
	}
	if seriesToStdout {
		return // the series replaced the summary
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Summary()); err != nil {
			fmt.Fprintf(os.Stderr, "mflushsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	desc := w.Describe()
	if *traces != "" {
		desc = "replayed traces: " + *traces
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\t%s\n", desc)
	fmt.Fprintf(tw, "policy\t%s\n", res.Policy)
	fmt.Fprintf(tw, "cycles\t%d (after %d warm-up)\n", res.Cycles, *warmup)
	fmt.Fprintf(tw, "system IPC\t%.3f\n", res.IPC)
	for i, ipc := range res.PerCore {
		fmt.Fprintf(tw, "core %d IPC\t%.3f\n", i, ipc)
	}
	for i, n := range res.Committed {
		fmt.Fprintf(tw, "thread %d committed\t%d\n", i, n)
	}
	fmt.Fprintf(tw, "flushes\t%d\n", res.Flushes)
	fmt.Fprintf(tw, "flushed instructions\t%d\n", res.Energy.FlushedTotal())
	fmt.Fprintf(tw, "wasted energy\t%.1f units (%.4f per commit)\n",
		res.WastedEnergy(), res.Energy.WastedPerCommit())
	h := res.HitLatency
	fmt.Fprintf(tw, "L2 hit time\tmean %.1f, p50 %d, p90 %d, max %d (n=%d)\n",
		h.Mean(), h.Percentile(0.5), h.Percentile(0.9), h.Max(), h.Count())
	tw.Flush()

	if *verbose {
		fmt.Println("\ncounters:")
		tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		for _, c := range res.Counters.All() {
			fmt.Fprintf(tw, "  %s\t%d\n", c.Name, c.Value)
		}
		tw.Flush()
	}
}
