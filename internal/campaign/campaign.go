// Package campaign batches simulations at evaluation scale: a Spec
// declares a cartesian sweep (workloads × policies × seeds × machine
// tweaks) that expands deterministically into keyed Jobs, a Scheduler
// executes them on a bounded worker pool, a JSONL Store persists one
// summary per job so interrupted campaigns resume where they stopped,
// and Aggregate folds the per-seed results into mean/min/max/CI cells
// for export (CSV, JSON, text tables).
//
// The paper's evaluation is exactly such a grid — every figure is a
// sweep over workloads and policies on one machine point — so the
// figure generators in internal/experiments run through this package's
// scheduler too.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Tweak is a named, declarative machine-configuration delta: the knobs
// the evaluation sweeps (MSHR size, L2 capacity, bus transfer delay,
// main-memory latency, per-thread register reservation). A zero field
// leaves the paper's default; the zero Tweak is the baseline machine.
// Declarative fields — unlike sim.Options.Tweak's opaque function — can
// be serialised into spec files and hashed into job keys. keyhash
// holds every field to canon's coverage.
//
//mflush:keyed canon
type Tweak struct {
	// Name labels the machine point in results and aggregation cells;
	// it does not participate in job keys (content does).
	//mflush:keyed-ignore
	Name string `json:"name,omitempty"`
	// MSHREntries overrides the per-core miss status holding register
	// count.
	MSHREntries int `json:"mshr_entries,omitempty"`
	// L2SizeBytes overrides the shared L2 capacity. It must divide into
	// the default 12-way 4-bank geometry (multiples of 3072 bytes);
	// config validation rejects sizes that do not.
	L2SizeBytes int `json:"l2_size_bytes,omitempty"`
	// BusDelay overrides the one-way L1<->L2 bus transfer latency.
	BusDelay int `json:"bus_delay,omitempty"`
	// MainMemoryLatency overrides the L2-miss service latency.
	MainMemoryLatency int `json:"main_memory_latency,omitempty"`
	// RegReservePerThread overrides the per-thread rename-register
	// reservation.
	RegReservePerThread int `json:"reg_reserve_per_thread,omitempty"`
}

// IsZero reports whether the tweak leaves the machine at its defaults.
func (tw Tweak) IsZero() bool {
	return tw.MSHREntries == 0 && tw.L2SizeBytes == 0 && tw.BusDelay == 0 &&
		tw.MainMemoryLatency == 0 && tw.RegReservePerThread == 0
}

// validate rejects negative knob values: apply would silently skip them
// (its guards are > 0), so the job would run the baseline machine while
// its key and label claim a distinct point.
func (tw Tweak) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"mshr_entries", tw.MSHREntries},
		{"l2_size_bytes", tw.L2SizeBytes},
		{"bus_delay", tw.BusDelay},
		{"main_memory_latency", tw.MainMemoryLatency},
		{"reg_reserve_per_thread", tw.RegReservePerThread},
	} {
		if f.v < 0 {
			return fmt.Errorf("campaign: tweak %q: negative %s %d", tw.Label(), f.name, f.v)
		}
	}
	return nil
}

// Label names the machine point for reports: the tweak's Name, or
// "baseline" for the zero tweak, or a canonical field dump.
func (tw Tweak) Label() string {
	if tw.Name != "" {
		return tw.Name
	}
	if tw.IsZero() {
		return "baseline"
	}
	return tw.canon()
}

// canon renders the content fields (not the name) in a fixed order; job
// keys hash this, so renaming a tweak never invalidates stored results.
func (tw Tweak) canon() string {
	return fmt.Sprintf("mshr=%d l2=%d bus=%d mem=%d reserve=%d",
		tw.MSHREntries, tw.L2SizeBytes, tw.BusDelay, tw.MainMemoryLatency,
		tw.RegReservePerThread)
}

// apply mutates the machine configuration; zero fields are left alone.
func (tw Tweak) apply(c *config.Config) {
	if tw.MSHREntries > 0 {
		c.Core.MSHREntries = tw.MSHREntries
	}
	if tw.L2SizeBytes > 0 {
		c.Mem.L2.SizeBytes = tw.L2SizeBytes
	}
	if tw.BusDelay > 0 {
		c.Mem.BusDelay = tw.BusDelay
	}
	if tw.MainMemoryLatency > 0 {
		c.Mem.MainMemoryLatency = tw.MainMemoryLatency
	}
	if tw.RegReservePerThread > 0 {
		c.Core.RegReservePerThread = tw.RegReservePerThread
	}
}

// Spec declares a campaign: the cartesian product of workloads,
// policies, seeds and machine tweaks, each cell simulated for the same
// cycle budget. Specs are plain JSON so sweeps are written as data, not
// Go (see CAMPAIGNS.md for the format).
type Spec struct {
	// Workloads are paper workload names (2W1 .. 8W5, 8W-bzip2-twolf)
	// and/or scenario trace files ("trace:PATH" — see TracePrefix).
	// Trace entries resolve at expansion time to the file's content
	// digest, which is what their job keys hash.
	Workloads []string `json:"workloads"`
	// Policies are parsed with sim.ParseSpec (ICOUNT, FLUSH-S30, ...).
	Policies []string `json:"policies"`
	// Seeds drive workload synthesis; results aggregate across them.
	// Empty defaults to the single seed 1.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Tweaks are the machine points; empty defaults to the baseline.
	Tweaks []Tweak `json:"tweaks,omitempty"`
	// Cycles and Warmup are per-simulation budgets (sim.Options).
	Cycles uint64 `json:"cycles"`
	// Warmup cycles run first and are excluded from measurement.
	Warmup uint64 `json:"warmup"`
	// Interval, when positive, asks every job to record an interval
	// time series: one sample per Interval measured cycles, carried in
	// each record's summary as interval_samples (and streamed live as
	// mflushd `sample` SSE events while the job simulates locally).
	// Sampling is part of the job's content — it changes the record —
	// so it participates in job keys; interval-less jobs keep their
	// pre-existing keys.
	Interval uint64 `json:"interval,omitempty"`
}

// ReadSpec decodes a JSON spec, rejecting unknown fields so typos in
// hand-written sweep files fail loudly.
func ReadSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("campaign: bad spec: %w", err)
	}
	return s, nil
}

// Jobs expands the spec into its cartesian product, deterministically
// ordered workload-major, then policy, then tweak, then seed. Unknown
// workload or policy names fail the whole expansion.
func (s Spec) Jobs() ([]Job, error) {
	if s.Cycles == 0 {
		return nil, fmt.Errorf("campaign: spec needs a positive cycle budget")
	}
	if len(s.Workloads) == 0 || len(s.Policies) == 0 {
		return nil, fmt.Errorf("campaign: spec needs at least one workload and one policy")
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	tweaks := s.Tweaks
	if len(tweaks) == 0 {
		tweaks = []Tweak{{}}
	}
	for _, tw := range tweaks {
		if err := tw.validate(); err != nil {
			return nil, err
		}
	}
	// Duplicate axis entries expand into jobs with identical keys: the
	// duplicates would re-run (or cache-hit) the same simulation and
	// double-count its value in every per-cell statistic, silently
	// deflating the confidence intervals. Fail loudly instead, comparing
	// canonical forms ("icount" duplicates "ICOUNT").
	dup := make(map[string]bool)
	type wlEntry struct {
		w  workload.Workload
		tr *TraceRef
	}
	workloads := make([]wlEntry, len(s.Workloads))
	for i, name := range s.Workloads {
		if strings.HasPrefix(name, TracePrefix) {
			ref, err := ResolveTrace(name)
			if err != nil {
				return nil, err
			}
			// Two paths with identical bytes are one workload: their
			// jobs would share keys (content-addressed), so admitting
			// both would double-count like any duplicate axis entry.
			id := TracePrefix + ref.Digest
			if dup[id] {
				return nil, fmt.Errorf("campaign: trace %q duplicates another trace entry's content", name)
			}
			dup[id] = true
			workloads[i] = wlEntry{tr: ref}
			continue
		}
		w, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("campaign: unknown workload %q", name)
		}
		if dup[w.Name] {
			return nil, fmt.Errorf("campaign: duplicate workload %q", name)
		}
		dup[w.Name] = true
		workloads[i] = wlEntry{w: w}
	}
	clear(dup)
	policies := make([]sim.PolicySpec, len(s.Policies))
	for i, name := range s.Policies {
		p, err := sim.ParseSpec(name)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		if dup[p.String()] {
			return nil, fmt.Errorf("campaign: duplicate policy %q", name)
		}
		dup[p.String()] = true
		policies[i] = p
	}
	clear(dup)
	for _, tw := range tweaks {
		if dup[tw.canon()] {
			return nil, fmt.Errorf("campaign: tweak %q duplicates another tweak's content", tw.Label())
		}
		dup[tw.canon()] = true
	}
	seen := make(map[uint64]bool)
	for _, seed := range seeds {
		if seen[seed] {
			return nil, fmt.Errorf("campaign: duplicate seed %d", seed)
		}
		seen[seed] = true
	}
	// Bound the expansion before allocating for it: a hostile or typo'd
	// spec (tens of thousands of distinct FLUSH-S<n> policies × as many
	// seeds) could otherwise request a multi-gigabyte job slice and
	// crash the process instead of failing the request. 2^20 jobs is far
	// beyond any legitimate sweep.
	const maxJobs = 1 << 20
	n := uint64(1)
	for _, axis := range []int{len(workloads), len(policies), len(tweaks), len(seeds)} {
		// Checking after every factor keeps the product overflow-free:
		// n stays <= maxJobs before each multiply.
		if n *= uint64(axis); n > maxJobs {
			return nil, fmt.Errorf("campaign: spec expands to over %d jobs; split the sweep", maxJobs)
		}
	}
	jobs := make([]Job, 0, len(workloads)*len(policies)*len(tweaks)*len(seeds))
	for _, w := range workloads {
		for _, p := range policies {
			for _, tw := range tweaks {
				for _, seed := range seeds {
					jobs = append(jobs, Job{
						Workload: w.w, Trace: w.tr, Policy: p, Tweak: tw, Seed: seed,
						Cycles: s.Cycles, Warmup: s.Warmup, Interval: s.Interval,
					})
				}
			}
		}
	}
	return jobs, nil
}

// Job is one fully specified simulation of a campaign. Every field is
// result-determining and therefore key material; keyhash enforces that
// Key (with GangKey) covers whatever fields this struct grows.
//
//mflush:keyed Key GangKey
type Job struct {
	// Workload selects the benchmark mix. Zero when Trace is set.
	Workload workload.Workload
	// Trace, when non-nil, makes this a trace-replay job: the scenario
	// file it references is loaded into sim.Options.ThreadTraces and
	// Workload is ignored. Trace jobs key on the file's content digest.
	Trace *TraceRef
	// Policy is the IFetch policy under evaluation.
	Policy sim.PolicySpec
	// Tweak is the machine point (zero: the paper's baseline).
	Tweak Tweak
	// Seed drives workload synthesis.
	Seed uint64
	// Cycles is the measured window.
	Cycles uint64
	// Warmup runs before the measured window, unmeasured.
	Warmup uint64
	// Interval, when positive, samples the measured window every
	// Interval cycles into the record's interval_samples.
	Interval uint64
}

// Key is a content hash of every parameter that determines the job's
// result (the simulator itself is deterministic). Stores index completed
// work by this key, so resume survives reordering or extending a spec —
// only genuinely new parameter combinations run. A sampling interval
// changes the record content, so it is hashed too — but only when set,
// keeping every pre-interval store entry addressable.
func (j Job) Key() string {
	material := fmt.Sprintf("w=%s p=%s seed=%d cycles=%d warmup=%d %s",
		j.workloadID(), j.Policy, j.Seed, j.Cycles, j.Warmup, j.Tweak.canon())
	if j.Interval > 0 {
		material += fmt.Sprintf(" interval=%d", j.Interval)
	}
	h := sha256.Sum256([]byte(material))
	return hex.EncodeToString(h[:16])
}

// workloadID is the key-material identity of the job's workload axis:
// the workload name, or "trace:" plus the content digest for trace
// jobs. No paper workload name contains a colon, so the two spaces can
// never collide — and since synthetic material is unchanged, every
// pre-trace store stays addressable (frozen-key test).
func (j Job) workloadID() string {
	if j.Trace != nil {
		return j.Trace.keyMaterial()
	}
	return j.Workload.Name
}

// SimOptions builds the sim.Options that execute the job. For trace
// jobs this loads the referenced scenario file (memoised per digest),
// verifying its content digest first — a worker whose copy of the file
// drifted from the coordinator's fails here instead of simulating the
// wrong scenario under the right key.
func (j Job) SimOptions() (sim.Options, error) {
	o := sim.Options{
		Workload: j.Workload, Policy: j.Policy, Seed: j.Seed,
		Cycles: j.Cycles, Warmup: j.Warmup, Interval: j.Interval,
	}
	if !j.Tweak.IsZero() {
		o.Tweak = j.Tweak.apply
	}
	if j.Trace != nil {
		if err := j.Trace.validate(); err != nil {
			return sim.Options{}, err
		}
		threads, err := j.Trace.load()
		if err != nil {
			return sim.Options{}, err
		}
		o.Name, o.ThreadTraces = j.Trace.Name, threads
	}
	return o, nil
}

// String names the job for progress lines and errors.
func (j Job) String() string {
	name := j.Workload.Name
	if j.Trace != nil {
		name = j.Trace.Name
	}
	s := fmt.Sprintf("%s/%s seed=%d", name, j.Policy, j.Seed)
	if !j.Tweak.IsZero() || j.Tweak.Name != "" {
		s += " [" + j.Tweak.Label() + "]"
	}
	return s
}
