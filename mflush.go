// Package mflush is the public API of the MFLUSH reproduction: a
// trace-driven cycle-level simulator of chip multiprocessors built from
// SMT cores sharing a banked L2 cache, together with the instruction-fetch
// policies the paper studies (ICOUNT, FLUSH, STALL) and its contribution,
// the adaptive MFLUSH policy.
//
// Reproduces: Acosta, Cazorla, Ramirez, Valero — "MFLUSH: Handling
// Long-latency loads in SMT On-Chip Multiprocessors", ICPP 2008.
//
// Quickstart:
//
//	w, _ := mflush.WorkloadByName("2W3") // mcf + gzip
//	res, err := mflush.Run(mflush.Options{
//		Workload: w,
//		Policy:   mflush.MFLUSH,
//		Warmup:   300_000,
//		Cycles:   200_000,
//	})
//	fmt.Println(res.IPC)
//
// The experiment harnesses behind every figure of the paper live in
// Figure2..Figure11; cmd/mflushbench renders them as text tables.
package mflush

import (
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/workload"
)

// Options configures one simulation run. See sim.Options.
type Options = sim.Options

// Result is the outcome of one run. See sim.Result.
type Result = sim.Result

// Session is an open, incrementally steppable simulation: advance it
// with Step, observe it with Snapshot and Observe, close it with
// Finish. See sim.Session.
type Session = sim.Session

// Sample is the cheap interval digest a Session exposes while running.
// See sim.Sample.
type Sample = sim.Sample

// SamplePoint is the retainable, serialisable form of a Sample. See
// sim.SamplePoint.
type SamplePoint = sim.SamplePoint

// Probe is a periodic observer registered with Session.Observe. See
// sim.Probe for the firing and no-mutation invariants.
type Probe = sim.Probe

// GangSession steps N variant simulations in lockstep over shared
// immutable inputs, bit-identical to N solo Sessions. See
// sim.GangSession.
type GangSession = sim.GangSession

// Recorder collects a probe's firings into a SamplePoint time series.
// See sim.Recorder.
type Recorder = sim.Recorder

// PolicySpec selects an IFetch policy.
type PolicySpec = sim.PolicySpec

// Workload is a named set of benchmark instances, one per hardware thread.
type Workload = workload.Workload

// Profile is a synthetic benchmark description.
type Profile = synth.Profile

// ExperimentConfig scales the figure harnesses.
type ExperimentConfig = experiments.Config

// Common policy specifications.
var (
	// ICOUNT is the baseline fetch policy (Tullsen et al., ISCA'96).
	ICOUNT = sim.SpecICOUNT
	// FlushNS is non-speculative FLUSH (trigger on detected L2 miss).
	FlushNS = sim.SpecFlushNS
	// MFLUSH is the paper's adaptive policy.
	MFLUSH = sim.SpecMFLUSH
)

// FlushS returns speculative FLUSH with the given delay-after-issue
// trigger in cycles (the paper's FLUSH-SX).
func FlushS(trigger int) PolicySpec { return sim.SpecFlushS(trigger) }

// StallS returns the STALL policy with the given trigger.
func StallS(trigger int) PolicySpec { return sim.SpecStallS(trigger) }

// MFLUSHHistory returns MFLUSH with a deeper MCReg history (the paper's
// optional configuration; 1 is the published single-register design).
func MFLUSHHistory(depth int) PolicySpec {
	return sim.PolicySpec{Kind: sim.MFLUSH, History: depth}
}

// Run executes one simulation to completion (RunGang over one member;
// see sim.Run).
func Run(opt Options) (*Result, error) { return sim.Run(opt) }

// Open starts an incremental simulation session positioned at cycle
// zero: the steppable, observable form of Run.
func Open(opt Options) (*Session, error) { return sim.Open(opt) }

// OpenGang starts a lockstep gang of sessions, one per Options, sharing
// instruction streams across members where the inputs coincide. Results are bit-identical to opening each member solo.
func OpenGang(opts []Options) (*GangSession, error) { return sim.OpenGang(opts) }

// RunGang executes a gang to completion: warm-up, measurement reset and
// cycle budget applied to all members in lockstep, returning one Result
// per member — each bit-identical to what Run would have produced.
func RunGang(opts []Options) ([]*Result, error) { return sim.RunGang(opts) }

// Speedup returns a's throughput gain over b as a fraction.
func Speedup(a, b *Result) float64 { return sim.Speedup(a, b) }

// DefaultConfig returns the paper's Figure 1 machine with the given core
// count (each core has two hardware contexts).
func DefaultConfig(cores int) config.Config { return config.Default(cores) }

// Workloads returns the paper's 20 Figure 1 workloads.
func Workloads() []Workload { return workload.All() }

// WorkloadByName resolves an xWy workload name.
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }

// WorkloadsOfSize returns the five workloads with the given thread count
// (2, 4, 6 or 8).
func WorkloadsOfSize(threads int) []Workload { return workload.OfSize(threads) }

// BenchmarkProfiles returns the 26 synthetic SPEC2000 benchmark profiles.
func BenchmarkProfiles() []Profile { return synth.Profiles() }

// OperationalEnvironment returns the MFLUSH thresholds (MIN, MAX, MT,
// suspicious, Barrier behaviour) for a machine with the given core count.
func OperationalEnvironment(cores int) core.OperationalEnvironment {
	cfg := config.Default(cores)
	return core.EnvironmentFor(&cfg)
}

// Experiment harness re-exports: each reproduces the corresponding paper
// figure. See EXPERIMENTS.md for paper-vs-measured results.
var (
	DefaultExperiments = experiments.Default
	QuickExperiments   = experiments.Quick
)

// Figure2 runs the single-core ICOUNT vs FLUSH-S30 comparison and returns
// the per-workload rows plus the mean speedup.
func Figure2(cfg ExperimentConfig) ([]experiments.Figure2Row, float64, error) {
	return experiments.Figure2(cfg)
}

// Figure3 runs the multicore FLUSH-degradation analysis.
func Figure3(cfg ExperimentConfig) ([]experiments.Figure3Row, error) {
	return experiments.Figure3(cfg)
}

// Figure4 measures the L2 hit-time distributions per machine size.
func Figure4(cfg ExperimentConfig) ([]experiments.Figure4Row, error) {
	return experiments.Figure4(cfg)
}

// Figure5 sweeps the FLUSH Detection Moment on the paper's two example
// workloads.
func Figure5(cfg ExperimentConfig) ([]experiments.Figure5Row, error) {
	return experiments.Figure5(cfg)
}

// Figure8 runs the four-policy throughput evaluation on all multicore
// workloads.
func Figure8(cfg ExperimentConfig) ([]experiments.Figure8Row, error) {
	return experiments.Figure8(cfg)
}

// Figure11 runs the wasted-energy evaluation.
func Figure11(cfg ExperimentConfig) ([]experiments.Figure11Row, error) {
	return experiments.Figure11(cfg)
}
