package main

import (
	"fmt"
	rtmetrics "runtime/metrics"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/sim"
)

// heapCounters reads the Go heap's cumulative allocated bytes and its
// live bytes: what the last garbage collection found reachable. Reading
// runtime/metrics does not stop the world, so sampling it often is
// cheap.
func heapCounters() (allocated, live uint64) {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// heapPeak samples the live heap every millisecond on its own goroutine
// until stop, and returns the highest value seen.
type heapPeak struct {
	quit chan struct{}
	done chan struct{}
	once sync.Once
	peak uint64
}

func startHeapPeak() *heapPeak {
	p := &heapPeak{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			if _, live := heapCounters(); live > p.peak {
				p.peak = live
			}
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// stop ends sampling, waits for the sampler to exit and returns the
// peak. Calling it again returns the same peak.
func (p *heapPeak) stop() uint64 {
	p.once.Do(func() { close(p.quit) })
	<-p.done
	return p.peak
}

// optionsID is the identity a Runner can see of the job it was handed:
// sim.Options carry no job key, so the probe maps this back to one.
func optionsID(o sim.Options) string {
	name := o.Name
	if name == "" {
		name = o.Workload.Name
	}
	return fmt.Sprintf("%s|%s|%d|%d|%d", name, o.Policy, o.Seed, o.Cycles, o.Warmup)
}

// jobID is optionsID for the job that SimOptions would build.
func jobID(j campaign.Job) string {
	name := j.Workload.Name
	if j.Trace != nil {
		name = j.Trace.Name
	}
	return fmt.Sprintf("%s|%s|%d|%d|%d", name, j.Policy, j.Seed, j.Cycles, j.Warmup)
}

// probe times the simulator from outside. Its runners replace the
// scheduler's or worker's default sim.Run / sim.RunGang with the same
// documented sequence (Open → Step(warm-up) → ResetMeasurement →
// Step(cycles) → Finish), wrapping each call in a span and reading the
// heap counters around it. Heap counters are process-wide, so
// allocations by a concurrently running job land in whichever call was
// being measured; per-call medians are what the report uses.
type probe struct {
	tr *tracer

	mu sync.Mutex
	// parent is the span new job spans hang under (the round's campaign).
	parent int
	keys   map[string]string // optionsID -> job key
	// began records when each job's Runner started (fleet queue wait).
	began   map[string]time.Time
	results map[string]*sim.Result

	openAlloc, stepAlloc []float64 // bytes per call
	stepSecs, stepCycles float64   // solo stepping, warm-up included
	measureSecs          float64   // solo measured window only
	committed            float64   // instructions committed in measured windows

	gangOpenAlloc    []float64
	gangStepSecs     float64
	gangMemberCycles float64
	gangParallelism  []float64
	workerSims       []float64 // seconds inside worker Runner calls
}

// bind points the probe at one round's campaign: its jobs (for key
// lookup) and the span the job spans belong under.
func (p *probe) bind(jobs []campaign.Job, parent int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.parent = parent
	p.keys = make(map[string]string, len(jobs))
	for _, j := range jobs {
		p.keys[jobID(j)] = j.Key()
	}
	p.began = make(map[string]time.Time, len(jobs))
	p.results = make(map[string]*sim.Result, len(jobs))
	p.workerSims = nil
}

// start books the beginning of a job's execution and returns its key
// and the parent span.
func (p *probe) start(o sim.Options) (string, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := p.keys[optionsID(o)]
	p.began[key] = time.Now()
	return key, p.parent
}

// timed runs f inside a span and returns the heap bytes allocated
// meanwhile.
func (p *probe) timed(name, key string, parent int, f func()) (secs float64, alloc uint64) {
	a0, _ := heapCounters()
	id := p.tr.start(name, key, parent)
	t0 := time.Now()
	f()
	secs = time.Since(t0).Seconds()
	p.tr.end(id)
	a1, _ := heapCounters()
	return secs, a1 - a0
}

// solo is a traced sim.Run.
func (p *probe) solo(o sim.Options) (*sim.Result, error) {
	return p.soloAs("job", o)
}

// worker is the traced Runner of a fleet worker: solo, plus the wall
// time the worker spent simulating.
func (p *probe) worker(o sim.Options) (*sim.Result, error) {
	t0 := time.Now()
	res, err := p.soloAs("worker.simulate", o)
	p.mu.Lock()
	p.workerSims = append(p.workerSims, time.Since(t0).Seconds())
	p.mu.Unlock()
	return res, err
}

func (p *probe) soloAs(spanName string, o sim.Options) (*sim.Result, error) {
	if o.Cycles == 0 || o.Interval > 0 {
		return nil, fmt.Errorf("perfbench: traced runner covers sampled-free, non-empty runs only")
	}
	key, parent := p.start(o)
	job := p.tr.start(spanName, key, parent)
	defer p.tr.end(job)

	var s *sim.Session
	var err error
	_, openAlloc := p.timed("sim.open", key, job, func() { s, err = sim.Open(o) })
	if err != nil {
		return nil, err
	}
	warm, warmAlloc := p.timed("sim.warmup", key, job, func() {
		if o.Warmup > 0 {
			s.Step(o.Warmup)
			s.ResetMeasurement()
		}
	})
	measure, measureAlloc := p.timed("sim.measure", key, job, func() { s.Step(o.Cycles) })
	var res *sim.Result
	p.timed("sim.finish", key, job, func() { res, err = s.Finish() })
	if err != nil {
		return nil, err
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	p.results[key] = res
	p.openAlloc = append(p.openAlloc, float64(openAlloc))
	p.stepAlloc = append(p.stepAlloc, float64(warmAlloc+measureAlloc))
	p.stepSecs += warm + measure
	p.stepCycles += float64(o.Warmup + o.Cycles)
	p.measureSecs += measure
	for _, n := range res.Committed {
		p.committed += float64(n)
	}
	return res, nil
}

// gang is a traced sim.RunGang.
func (p *probe) gang(opts []sim.Options) ([]*sim.Result, error) {
	if len(opts) == 0 {
		return nil, fmt.Errorf("perfbench: empty gang")
	}
	keys := make([]string, len(opts))
	var parent int
	for m, o := range opts {
		if o.Cycles != opts[0].Cycles || o.Warmup != opts[0].Warmup || o.Interval > 0 {
			return nil, fmt.Errorf("perfbench: traced gang covers one sampled-free window only")
		}
		keys[m], parent = p.start(o)
	}
	key := fmt.Sprint(keys)
	id := p.tr.start("gang", key, parent)
	defer p.tr.end(id)

	var g *sim.GangSession
	var err error
	_, openAlloc := p.timed("gang.open", key, id, func() { g, err = sim.OpenGang(opts) })
	if err != nil {
		return nil, err
	}
	warm, _ := p.timed("gang.warmup", key, id, func() {
		if w := opts[0].Warmup; w > 0 {
			g.Step(w)
			g.ResetMeasurement()
		}
	})
	measure, _ := p.timed("gang.measure", key, id, func() { g.Step(opts[0].Cycles) })
	var results []*sim.Result
	p.timed("gang.finish", key, id, func() { results, err = g.Finish() })
	if err != nil {
		return nil, err
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	for m, res := range results {
		p.results[keys[m]] = res
	}
	p.gangOpenAlloc = append(p.gangOpenAlloc, float64(openAlloc))
	p.gangStepSecs += warm + measure
	p.gangMemberCycles += float64(len(opts)) * float64(opts[0].Warmup+opts[0].Cycles)
	p.gangParallelism = append(p.gangParallelism, float64(g.Parallelism()))
	return results, nil
}
