// Command perfbench is the repository's benchmark: real-shape policy
// sweeps through the campaign scheduler (solo and gang paths) and an
// in-process mflushd fleet driven over HTTP. It prints every end-to-end
// metric (or, with --trace 1, every per-layer metric from a traced pass)
// by name with its unit, checks the program's outputs, and ends with one
// JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root (README.md in this directory has the
// workload and prediction tables):
//
//	bash perfbench/run.sh --workload sweep-solo --seed 1 --seconds 40 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/trace"
)

// minRounds is how many rounds a run makes even past its time budget:
// at least a warm-up round and two measured ones, so a traced pass has
// both a traced and an untraced round.
const minRounds = 3

type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	workers  int
	// root holds every file the benchmark writes, inside the checkout.
	root string
}

// workload is one named input set; a round sets it up from scratch on a
// fresh store and state directory, runs its fresh campaign and then its
// read phase.
type workload interface {
	round(ctx context.Context, env *roundEnv) (roundResult, error)
	// warmUp reports whether round 0 is a warm-up that is checked but
	// not reported, because it fills in-process state that later rounds
	// reuse.
	warmUp() bool
}

var workloads = map[string]workload{
	"sweep-solo": sweep{gang: false},
	"sweep-gang": sweep{gang: true},
	"fleet":      fleet{},
}

func main() {
	var cfg config
	var traced int
	flag.StringVar(&cfg.workload, "workload", "", "sweep-solo, sweep-gang or fleet")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 40, "time budget for the measured rounds")
	flag.IntVar(&traced, "trace", 0, "1: traced pass printing per-layer metrics")
	flag.Parse()
	cfg.traced = traced == 1
	cfg.workers = runtime.GOMAXPROCS(0)
	cfg.root = filepath.Join(".bench_build", "perfbench")

	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runEnv is what lives for the whole run: the ledger, the tracer and
// probe of the traced pass, and the per-layer samples they collect.
type runEnv struct {
	cfg   config
	led   *ledger
	spans *tracer
	probe *probe
	state string // this run's scratch directory

	mu     sync.Mutex
	layer  map[string][]float64
	counts map[string]float64
	// first is round 0's record digest and model counts; every later
	// round with the same seed must reproduce them.
	first string
	model map[string]float64
	dirs  int
}

// roundEnv is one round's view: tr is nil in untraced rounds.
type roundEnv struct {
	*runEnv
	index int
	tr    *tracer
	root  int
}

// roundResult is what one round measured.
type roundResult struct {
	traced bool
	// setups holds each set-up's time, and setupRefs the reference
	// operation timed right after it (refSetupSecs is its time on the
	// reference host). A workload that records no reference has its
	// set-ups scaled by the speed probe, like its campaigns.
	setups       []float64
	setupRefs    []float64
	refSetupSecs float64
	campaign     float64
	cached       []float64
	// cachedRef holds the reference operation timed right after each
	// cached resubmit, and refCachedSecs its time on the reference host.
	cachedRef     []float64
	refCachedSecs float64
	jobs          int
	cycles        uint64
	allocBytes    uint64
	peakHeap      uint64
	digest        string
}

func run(ctx context.Context, cfg config) (*result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want sweep-solo, sweep-gang or fleet)", cfg.workload)
	}
	if err := os.MkdirAll(cfg.root, 0o755); err != nil {
		return nil, err
	}
	state, err := os.MkdirTemp(cfg.root, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(state)
	env := &runEnv{cfg: cfg, led: &ledger{}, state: state,
		layer: make(map[string][]float64), counts: make(map[string]float64)}
	if cfg.traced {
		env.spans = newTracer()
		env.probe = &probe{tr: env.spans}
	}
	printFingerprint(cfg)

	// The untraced pass times the speed probe before every reported
	// round and after the last one, each time for probeShare of the
	// round before; its rounds' lengths include it.
	host := &hostSpeed{workers: cfg.workers}
	first := 0 // the first reported round
	if wl.warmUp() {
		first = 1
	}
	start := time.Now()
	var rounds []roundResult
	var lengths []float64
	for i := 0; ; i++ {
		elapsed := time.Since(start).Seconds()
		if i >= minRounds && elapsed+median(lengths) > cfg.seconds {
			break
		}
		t := time.Now()
		probed := ""
		if !cfg.traced && i >= first {
			probed = fmt.Sprintf(", probe %.4fs", host.measure(probeTime(lengths)))
		}
		re := &roundEnv{runEnv: env, index: i}
		if cfg.traced && i > 0 && i%2 == 0 {
			re.tr = env.spans
			re.root = re.tr.start("round", "", 0)
		}
		// Every round starts from a collected heap, so garbage left by
		// the previous round does not shift this one's GC timing.
		runtime.GC()
		r, err := wl.round(ctx, re)
		re.tr.end(re.root)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		r.traced = re.tr != nil
		lengths = append(lengths, time.Since(t).Seconds())
		note := ""
		switch {
		case i < first:
			note = " (warm-up, not reported)"
		case r.traced:
			note = " (traced)"
		}
		if i >= first {
			rounds = append(rounds, r)
		}
		setupRef := ""
		if len(r.setupRefs) > 0 {
			setupRef = fmt.Sprintf(" (reference %.1fus)", median(r.setupRefs)*1e6)
		}
		fmt.Printf("round %d%s: setup %.1fus%s, campaign %.3fs, cached p50 %.1fus (reference %.2fus), %.1f MB peak live heap%s\n",
			i, note, median(r.setups)*1e6, setupRef, r.campaign, median(r.cached)*1e6, median(r.cachedRef)*1e6, float64(r.peakHeap)/1e6, probed)
	}

	if !cfg.traced {
		fmt.Printf("final probe %.4fs\n", host.measure(probeTime(lengths)))
	}

	res := &result{Attempted: env.led.attempted, Failed: env.led.failed}
	res.Correct = res.Failed == 0
	fmt.Printf("ops_attempted %d, failed %d, failed_ops_frac %g\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	for _, p := range env.led.problems {
		fmt.Println("  failure:", p)
	}
	if cfg.traced {
		res.Metrics = env.perLayer(rounds)
		path := filepath.Join(cfg.root, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
		if err := env.spans.writeFile(path); err != nil {
			return nil, err
		}
		fmt.Println("spans written to", path)
	} else {
		f := host.factor()
		fmt.Printf("host speed: median probe %.4fs over %d repetitions, reference %gs, factor %.4f;"+
			" campaign times below are measured ones ÷ the factor, cached (and sweep set-up) times are"+
			" scaled by the reference operation after each\n", median(host.secs), len(host.secs), refProbeSecs, f)
		res.Metrics = endToEnd(rounds, f)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value", name)
		}
	}
	printMetrics(res.Metrics, len(rounds))
	return res, nil
}

// probeTime is how long a probe point lasts after the rounds whose
// lengths are given: probeShare of the last one, or firstProbe before
// the first round.
func probeTime(lengths []float64) time.Duration {
	if len(lengths) == 0 {
		return firstProbe
	}
	return time.Duration(probeShare * lengths[len(lengths)-1] * float64(time.Second))
}

// endToEnd computes the user-visible metrics over the rounds, with
// every time scaled to the reference host speed: cached resubmits and
// set-ups that have one by the reference operation timed after each,
// the rest divided by factor, the run's host slowdown
// (hostSpeed.factor).
func endToEnd(rounds []roundResult, factor float64) map[string]metric {
	var setup, camp, rate, alloc, peak, cached []float64
	for _, r := range rounds {
		if len(r.setupRefs) == 0 {
			for _, d := range r.setups {
				setup = append(setup, d/factor)
			}
		} else {
			setup = append(setup, scaled(r.setups, r.setupRefs, r.refSetupSecs)...)
		}
		camp = append(camp, r.campaign)
		rate = append(rate, float64(r.cycles)/r.campaign)
		alloc = append(alloc, float64(r.allocBytes)/float64(r.jobs)/1e6)
		peak = append(peak, float64(r.peakHeap)/1e6)
		cached = append(cached, scaled(r.cached, r.cachedRef, r.refCachedSecs)...)
	}
	return map[string]metric{
		"setup_s":               {median(setup), "s"},
		"campaign_s":            {median(camp) / factor, "s"},
		"sim_cycles_per_s":      {median(rate) * factor, "cycles/s"},
		"cached_campaign_p50_s": {quantile(cached, 0.5), "s"},
		"cached_campaign_p90_s": {quantile(cached, 0.9), "s"},
		"alloc_mb_per_job":      {median(alloc), "MB"},
		"peak_heap_mb":          {quantile(peak, 1), "MB"},
	}
}

// perLayer computes the per-layer metrics from the traced rounds' spans
// and samples. A layer the workload never calls reads 0.
func (e *runEnv) perLayer(rounds []roundResult) map[string]metric {
	spans := e.spans.snapshot()
	p := e.probe
	med := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	q := func(xs []float64, at float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return quantile(xs, at)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	scaled := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	self := make(map[string][]float64)
	for _, r := range splitRounds(spans) {
		for name, d := range selfByName(r) {
			self[name] = append(self[name], d.Seconds())
		}
	}
	var traced, plain []float64
	for _, r := range rounds {
		if r.traced {
			traced = append(traced, r.campaign)
		} else {
			plain = append(plain, r.campaign)
		}
	}
	l := e.layer
	m := map[string]metric{
		"sim.open_s":                    {med(durations(spans, "sim.open")), "s"},
		"sim.open_alloc_mb":             {med(p.openAlloc) / 1e6, "MB"},
		"sim.warmup_s":                  {med(durations(spans, "sim.warmup")), "s"},
		"sim.measure_s":                 {med(durations(spans, "sim.measure")), "s"},
		"sim.step_alloc_mb":             {med(p.stepAlloc) / 1e6, "MB"},
		"sim.host_ns_per_cycle":         {ratio(p.stepSecs, p.stepCycles) * 1e9, "ns"},
		"sim.host_ns_per_inst":          {ratio(p.measureSecs, p.committed) * 1e9, "ns"},
		"sim.finish_s":                  {med(durations(spans, "sim.finish")), "s"},
		"gang.open_s":                   {med(durations(spans, "gang.open")), "s"},
		"gang.open_alloc_mb":            {med(p.gangOpenAlloc) / 1e6, "MB"},
		"gang.warmup_s":                 {med(durations(spans, "gang.warmup")), "s"},
		"gang.measure_s":                {med(durations(spans, "gang.measure")), "s"},
		"gang.host_ns_per_member_cycle": {ratio(p.gangStepSecs, p.gangMemberCycles) * 1e9, "ns"},
		"gang.parallelism":              {med(p.gangParallelism), "goroutines"},

		"trace.synthesize_s":       {med(l["trace.synthesize_s"]), "s"},
		"trace.resolve_s":          {med(l["trace.resolve_s"]), "s"},
		"trace.load_s":             {med(l["trace.load_s"]), "s"},
		"trace.load_mb_per_s":      {med(l["trace.load_mb_per_s"]), "MB/s"},
		"campaign.expand_s":        {med(l["campaign.expand_s"]), "s"},
		"campaign.key_us":          {med(scaled(l["campaign.key_s"], 1e6)), "us"},
		"campaign.cache_lookup_us": {med(scaled(l["campaign.cache_lookup_s"], 1e6)), "us"},
		"campaign.aggregate_ms":    {med(scaled(l["campaign.aggregate_s"], 1e3)), "ms"},
		"campaign.record_us":       {med(scaled(l["campaign.record_s"], 1e6)), "us"},
		"campaign.store_append_us": {med(scaled(l["campaign.store_append_s"], 1e6)), "us"},

		"cluster.queue_wait_p50_s":  {q(l["cluster.queue_wait_s"], 0.5), "s"},
		"cluster.queue_wait_p90_s":  {q(l["cluster.queue_wait_s"], 0.9), "s"},
		"cluster.lease_rtt_p50_s":   {q(l["cluster.lease_rtt_s"], 0.5), "s"},
		"cluster.lease_rtt_p90_s":   {q(l["cluster.lease_rtt_s"], 0.9), "s"},
		"cluster.results_rtt_p50_s": {q(l["cluster.results_rtt_s"], 0.5), "s"},
		"cluster.results_rtt_p90_s": {q(l["cluster.results_rtt_s"], 0.9), "s"},
		"cluster.leases":            {med(l["cluster.leases"]), "count"},
		"cluster.lease_empty_frac":  {med(l["cluster.lease_empty_frac"]), "ratio"},
		"cluster.wal_fsyncs":        {med(l["cluster.wal_fsyncs"]), "count"},
		"cluster.wal_fsync_s":       {med(l["cluster.wal_fsync_s"]), "s"},
		"cluster.wal_append_s":      {med(l["cluster.wal_append_s"]), "s"},
		"cluster.requeues":          {med(l["cluster.requeues"]), "count"},
		"worker.simulate_s":         {med(durations(spans, "worker.simulate")), "s"},
		"worker.busy_frac":          {med(l["worker.busy_frac"]), "ratio"},
		"server.submit_p50_s":       {q(durations(spans, "server.submit"), 0.5), "s"},
		"server.submit_p90_s":       {q(durations(spans, "server.submit"), 0.9), "s"},
		"server.result_p50_s":       {q(durations(spans, "server.result"), 0.5), "s"},
		"server.result_p90_s":       {q(durations(spans, "server.result"), 0.9), "s"},
		"server.rejected_429":       {e.counts["server.rejected_429"], "count"},

		"self.campaign_s":        {med(self["campaign"]), "s"},
		"self.job_s":             {med(self["job"]), "s"},
		"self.gang_s":            {med(self["gang"]), "s"},
		"self.worker_simulate_s": {med(self["worker.simulate"]), "s"},

		"trace_overhead_frac": {ratio(med(traced), med(plain)) - 1, "ratio"},
	}
	for name, v := range e.model {
		m[name] = metric{v, modelUnits[name]}
	}
	return m
}

// splitRounds groups spans by the traced round they belong to (the root
// "round" span each descends from), so self times are per round.
func splitRounds(spans []span) [][]span {
	rootOf := make(map[int]int, len(spans))
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var find func(id int) int
	find = func(id int) int {
		if r, ok := rootOf[id]; ok {
			return r
		}
		s := byID[id]
		r := id
		if s.Parent != 0 {
			r = find(s.Parent)
		}
		rootOf[id] = r
		return r
	}
	groups := make(map[int][]span)
	var order []int
	for _, s := range spans {
		r := find(s.ID)
		if _, seen := groups[r]; !seen {
			order = append(order, r)
		}
		groups[r] = append(groups[r], s)
	}
	out := make([][]span, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

var modelUnits = map[string]string{
	"model.ipc":             "insts/cycle",
	"model.committed_insts": "count",
	"model.flushes":         "count",
	"model.flushed_insts":   "count",
	"model.l2_hits":         "count",
	"model.l2_misses":       "count",
	"model.wasted_energy":   "energy_units",
}

// modelCounts folds the simulated statistics of a campaign's records:
// mean IPC and summed counts. Host-only changes must leave every one of
// them exactly as it was.
func modelCounts(recs []campaign.Record) map[string]float64 {
	m := make(map[string]float64)
	for _, r := range recs {
		s := r.Summary
		m["model.ipc"] += s.IPC / float64(len(recs))
		for _, n := range s.Committed {
			m["model.committed_insts"] += float64(n)
		}
		m["model.flushes"] += float64(s.Flushes)
		m["model.flushed_insts"] += float64(s.FlushedInsts)
		m["model.l2_hits"] += float64(s.Counters["l2.hits"])
		m["model.l2_misses"] += float64(s.Counters["l2.misses"])
		m["model.wasted_energy"] += s.WastedEnergy
	}
	return m
}

// checkRecords validates a fresh campaign's records and requires every
// round of the run, all on one seed, to reproduce round 0's digest.
func (r *roundResult) checkRecords(env *roundEnv, recs []campaign.Record) {
	for _, rec := range recs {
		env.led.op(wellFormed(rec))
	}
	r.digest = digest(recs)
	env.mu.Lock()
	defer env.mu.Unlock()
	if env.index == 0 {
		env.first = r.digest
		env.model = modelCounts(recs)
		fmt.Printf("record digest %s\n", r.digest)
		return
	}
	env.led.op(sameDigest("repeat with the same seed", env.first, r.digest))
}

// freshDir makes a new, empty directory for one round's store and state.
func (e *roundEnv) freshDir() (string, error) {
	e.mu.Lock()
	e.dirs++
	n := e.dirs
	e.mu.Unlock()
	dir := filepath.Join(e.state, fmt.Sprintf("round-%d", n))
	return dir, os.MkdirAll(dir, 0o755)
}

// sample records one per-layer observation; untraced rounds record none.
func (e *roundEnv) sample(name string, v float64) {
	if e.tr == nil {
		return
	}
	e.mu.Lock()
	e.layer[name] = append(e.layer[name], v)
	e.mu.Unlock()
}

// count bumps a run-wide counter.
func (e *roundEnv) count(name string) {
	e.mu.Lock()
	e.counts[name]++
	e.mu.Unlock()
}

// traceCall records a client request that began at t as a root-level
// span of the round.
func (e *roundEnv) traceCall(name string, t time.Time) {
	e.tr.add(name, "", e.root, t, time.Now())
}

// layerCalls times direct calls into the campaign and trace layers,
// after the round's timed regions: the calls the scheduler and daemon
// make internally, repeated here so each can be timed alone.
func (e *roundEnv) layerCalls(spec campaign.Spec, jobs []campaign.Job, recs []campaign.Record, store *campaign.Store, dir string) error {
	t := time.Now()
	if _, err := spec.Jobs(); err != nil {
		return err
	}
	e.sample("campaign.expand_s", time.Since(t).Seconds())
	for _, j := range jobs {
		t := time.Now()
		_ = j.Key()
		e.sample("campaign.key_s", time.Since(t).Seconds())
	}
	cache := campaign.NewCache(store, nil)
	for _, j := range jobs {
		t := time.Now()
		_, ok := cache.Lookup(j)
		e.sample("campaign.cache_lookup_s", time.Since(t).Seconds())
		if !ok {
			return fmt.Errorf("job %s missing from the cache after its campaign", j)
		}
	}
	t = time.Now()
	_ = campaign.Aggregate(recs)
	e.sample("campaign.aggregate_s", time.Since(t).Seconds())

	side, err := campaign.OpenStore(filepath.Join(dir, "sidecar.jsonl"))
	if err != nil {
		return err
	}
	defer side.Close()
	e.probe.mu.Lock()
	results := e.probe.results
	e.probe.mu.Unlock()
	for _, j := range jobs {
		res := results[j.Key()]
		if res == nil {
			return fmt.Errorf("job %s: the traced runner saw no result", j)
		}
		t := time.Now()
		rec := campaign.NewRecord(j, res)
		if _, err := json.Marshal(rec); err != nil {
			return err
		}
		e.sample("campaign.record_s", time.Since(t).Seconds())
		t = time.Now()
		if err := side.Append(rec); err != nil {
			return err
		}
		e.sample("campaign.store_append_s", time.Since(t).Seconds())
	}

	for _, w := range spec.Workloads {
		if !strings.HasPrefix(w, campaign.TracePrefix) {
			continue
		}
		t := time.Now()
		ref, err := campaign.ResolveTrace(w)
		if err != nil {
			return err
		}
		e.sample("trace.resolve_s", time.Since(t).Seconds())
		t = time.Now()
		scen, err := trace.LoadScenario(ref.Path)
		if err != nil {
			return err
		}
		if _, err := scen.ThreadTraces(); err != nil {
			return err
		}
		secs := time.Since(t).Seconds()
		e.sample("trace.load_s", secs)
		if fi, err := os.Stat(ref.Path); err == nil {
			e.sample("trace.load_mb_per_s", float64(fi.Size())/1e6/secs)
		}
	}
	return nil
}

// printFingerprint names the machine the numbers come from.
func printFingerprint(cfg config) {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("machine: cpu %q, nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("workload %s, seed %d, budget %gs, traced %v, parallelism %d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.traced, cfg.workers)
}

// printMetrics lists the metrics by name with units, rounds counted.
func printMetrics(m map[string]metric, rounds int) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("metrics (medians over %d rounds):\n", rounds)
	for _, n := range names {
		v := m[n]
		fmt.Printf("  %-34s %14.6g %s\n", n, v.Value, v.Unit)
	}
}
