package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/tracecli"
)

const (
	fleetWorkers = 2
	fleetSeeds   = 40
	// fleetResubmits is the read phase per round: with several rounds
	// pooled, the p90 of cached campaigns has many samples beyond it.
	fleetResubmits = 100
	// traceInsts per thread makes a ~14 MB scenario, so the digest the
	// daemon takes of it on every submission is a visible cost.
	traceInsts = 200_000
)

// fleetTrace is the burst-mode scenario synthesised from the seed: two
// mcf threads whose loads suffer Pareto-tailed latency bursts.
func fleetTrace(seed uint64) tracecli.Config {
	return tracecli.Config{Mode: "burst", Benches: []string{"mcf"}, N: traceInsts, Threads: 2, Seed: seed + 1}
}

// fleetSpec is 160 short jobs: a paper workload and the synthesised
// trace, under ICOUNT and MFLUSH, over 40 seeds.
func fleetSpec(seed uint64, tracePath string) campaign.Spec {
	seeds := make([]uint64, fleetSeeds)
	for i := range seeds {
		seeds[i] = seed*fleetSeeds + uint64(i) + 1
	}
	return campaign.Spec{
		Workloads: []string{"2W1", campaign.TracePrefix + tracePath},
		Policies:  []string{"ICOUNT", "MFLUSH"},
		Seeds:     seeds,
		Warmup:    10_000,
		Cycles:    20_000,
	}
}

// fleet runs an in-process mflushd in cluster mode (write-ahead-logged
// queue, on-disk store) with loopback workers, driven by one closed-loop
// HTTP client.
type fleet struct{}

// warmUp is true: round 0 fills campaign's process-wide scenario memo
// (and grows the Go heap to its working size), so later rounds find the
// trace parsed.
func (fleet) warmUp() bool { return true }

func (fleet) round(ctx context.Context, env *roundEnv) (r roundResult, err error) {
	// The peak covers set-up and the fresh campaign; the read phase
	// holds less, and runs without the sampler's wake-ups.
	peak := startHeapPeak()
	defer peak.stop()

	t0 := time.Now()
	setup := env.tr.start("setup", "", env.root)
	dir, err := env.freshDir()
	if err != nil {
		return r, err
	}
	tracePath, err := synthesizeTrace(env, setup)
	if err != nil {
		return r, err
	}
	f, err := startFleet(ctx, env, dir)
	if err != nil {
		return r, err
	}
	defer func() {
		if cerr := f.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	spec := fleetSpec(env.cfg.seed, tracePath)
	body, err := json.Marshal(spec)
	if err != nil {
		return r, err
	}
	jobs, err := spec.Jobs()
	if err != nil {
		return r, err
	}
	env.tr.end(setup)
	// The set-up is tens of milliseconds of trace synthesis and daemon
	// start, which the speed probe tracks better than one reference
	// operation does.
	r.setups = append(r.setups, time.Since(t0).Seconds())

	camp := env.tr.start("campaign", "", env.root)
	if env.tr != nil {
		env.probe.bind(jobs, camp)
	}
	f.leases.reset()
	a0, _ := heapCounters()
	t1 := time.Now()
	want, err := f.client.campaign(ctx, body)
	r.campaign = time.Since(t1).Seconds()
	a1, _ := heapCounters()
	env.tr.end(camp)
	if err != nil {
		return r, fmt.Errorf("fresh campaign: %w", err)
	}
	r.jobs = len(jobs)
	r.allocBytes = a1 - a0
	for _, j := range jobs {
		r.cycles += j.Warmup + j.Cycles
	}
	env.led.ops(len(jobs)) // every job simulated and persisted
	if env.tr != nil {
		env.fleetLayers(t1, r.campaign, f.leases)
	}

	recs := make([]campaign.Record, len(jobs))
	for i, j := range jobs {
		rec, ok := f.store.Get(j.Key())
		if !ok {
			env.led.op(fmt.Errorf("job %s: no record in the store after the campaign", j))
			continue
		}
		recs[i] = rec
	}
	r.checkRecords(env, recs)
	cells, err := json.Marshal(campaign.Aggregate(recs))
	if err != nil {
		return r, err
	}
	var served []campaign.Cell
	if err := json.Unmarshal(want, &served); err != nil {
		return r, fmt.Errorf("decoding aggregate: %w", err)
	}
	again, _ := json.Marshal(served)
	env.led.op(sameBytes("served aggregate vs store records", cells, again))

	r.peakHeap = peak.stop()
	// Collect the fresh campaign's garbage first, so the read phase
	// starts from the same heap state in every round.
	runtime.GC()
	r.refCachedSecs = refDigestSecs
	read := env.tr.start("read", "", env.root)
	for i := 0; i < fleetResubmits; i++ {
		t := time.Now()
		got, err := f.client.campaign(ctx, body)
		r.cached = append(r.cached, time.Since(t).Seconds())
		r.cachedRef = append(r.cachedRef, refDigest())
		if err != nil {
			return r, fmt.Errorf("cached campaign: %w", err)
		}
		env.led.op(sameBytes("cached fleet aggregate", want, got))
	}
	env.tr.end(read)

	if env.tr != nil {
		if err := env.layerCalls(spec, jobs, recs, f.store, dir); err != nil {
			return r, err
		}
		if err := env.scrapeWAL(ctx, f.client); err != nil {
			return r, err
		}
		env.sample("cluster.requeues", float64(f.coord.Requeues()))
	}
	env.led.op(f.healthy())
	return r, nil
}

// synthesizeTrace writes the seed's scenario and returns its path. The
// path names the trace's records, so it is fixed per seed: runs and
// rounds with one seed then produce byte-identical records. Every round
// synthesises the file afresh, and the rename-into-place write keeps a
// concurrent run with the same seed from seeing a partial file.
func synthesizeTrace(env *roundEnv, parent int) (string, error) {
	id := env.tr.start("trace.synthesize", "", parent)
	defer env.tr.end(id)
	t := time.Now()
	path := filepath.Join(env.cfg.root, "traces", fmt.Sprintf("burst-%d.trace", env.cfg.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	scen, err := tracecli.Synthesize(fleetTrace(env.cfg.seed))
	if err != nil {
		return "", fmt.Errorf("synthesising trace: %w", err)
	}
	if err := tracecli.WriteFile(path, scen, "binary"); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	env.sample("trace.synthesize_s", time.Since(t).Seconds())
	return path, nil
}

// rig is one round's fleet: the store, the durable coordinator, the
// daemon on a loopback listener, the workers and the client.
type rig struct {
	store       *campaign.Store
	coord       *cluster.Coordinator
	srv         *server.Server
	hs          *http.Server
	served      chan struct{}
	transports  []*http.Transport
	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
	client      *client
	leases      *leaseLog
	localRuns   atomic.Int64
}

// startFleet brings the fleet up in dir and returns once every worker
// has registered. On failure it tears down what it started.
func startFleet(ctx context.Context, env *roundEnv, dir string) (f *rig, err error) {
	f = &rig{leases: &leaseLog{}}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.store, err = campaign.OpenStore(filepath.Join(dir, "results.jsonl")); err != nil {
		return f, err
	}
	f.coord, err = cluster.OpenCoordinator(cluster.Config{
		StateDir: filepath.Join(dir, "state"),
		Persisted: func(key string) bool {
			_, ok := f.store.Get(key)
			return ok
		},
	})
	if err != nil {
		return f, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return f, err
	}
	f.srv = server.New(server.Config{
		Store: f.store, Cluster: f.coord, Workers: env.cfg.workers,
		// Workers register before the first submission, so every miss
		// should go to the fleet; a local fallback is a failed op.
		Runner: func(o sim.Options) (*sim.Result, error) {
			f.localRuns.Add(1)
			return sim.Run(o)
		},
	})
	f.hs = &http.Server{Handler: f.srv}
	f.served = make(chan struct{})
	go func() {
		defer close(f.served)
		_ = f.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	base := "http://" + ln.Addr().String()

	wctx, stop := context.WithCancel(ctx)
	f.stopWorkers = stop
	for i := 0; i < fleetWorkers; i++ {
		t := newTransport()
		f.transports = append(f.transports, t)
		w := &cluster.Worker{Base: base, Name: fmt.Sprintf("bench-%d", i), Capacity: 1,
			Client: &http.Client{Transport: &timedTransport{base: t, env: env, log: f.leases}}}
		if env.tr != nil {
			w.Runner = env.probe.worker
		}
		f.workers.Add(1)
		go func() {
			defer f.workers.Done()
			if err := w.Run(wctx); err != nil && wctx.Err() == nil {
				env.led.op(fmt.Errorf("worker: %w", err))
			}
		}()
	}
	t := newTransport()
	f.transports = append(f.transports, t)
	f.client = &client{base: base, hc: &http.Client{Transport: t}, env: env}
	return f, f.client.awaitFleet(ctx, fleetWorkers)
}

// healthy reports a fleet that had to retry or fall back: every job
// should have run once, on a worker.
func (f *rig) healthy() error {
	if n := f.localRuns.Load(); n > 0 {
		return fmt.Errorf("%d jobs fell back to local simulation", n)
	}
	if n := f.coord.Requeues(); n > 0 {
		return fmt.Errorf("%d jobs requeued", n)
	}
	return nil
}

// close stops the workers (they deregister while the daemon still
// serves), drains and closes the daemon, then the coordinator and the
// store. It tolerates a partly started rig.
func (f *rig) close() error {
	if f.stopWorkers != nil {
		f.stopWorkers()
		f.workers.Wait()
	}
	var err error
	if f.srv != nil {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if derr := f.srv.Drain(dctx); derr != nil {
			err = fmt.Errorf("drain: %w", derr)
		}
		f.hs.Close()
		<-f.served
	}
	for _, t := range f.transports {
		t.CloseIdleConnections()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	if f.store != nil {
		f.store.Close()
	}
	return err
}

// fleetLayers derives the fleet's per-layer numbers for the campaign
// that started at t1 and took secs: queue wait (submission to worker
// Runner start), worker busy share and the lease protocol's round trips.
func (e *roundEnv) fleetLayers(t1 time.Time, secs float64, leases *leaseLog) {
	p := e.probe
	p.mu.Lock()
	for _, b := range p.began {
		e.sample("cluster.queue_wait_s", b.Sub(t1).Seconds())
	}
	e.sample("worker.busy_frac", sum(p.workerSims)/(fleetWorkers*secs))
	p.mu.Unlock()
	leases.mu.Lock()
	defer leases.mu.Unlock()
	e.sample("cluster.leases", float64(leases.leases))
	if leases.leases > 0 {
		e.sample("cluster.lease_empty_frac", float64(leases.empty)/float64(leases.leases))
	}
	for _, d := range leases.leaseRT {
		e.sample("cluster.lease_rtt_s", d)
	}
	for _, d := range leases.postRT {
		e.sample("cluster.results_rtt_s", d)
	}
}

// newTransport is a private connection pool, so each round's
// connections close with the round.
func newTransport() *http.Transport {
	return http.DefaultTransport.(*http.Transport).Clone()
}

// client is the closed-loop campaign client: submit, follow the event
// stream to its terminal event, fetch the aggregate, and only then send
// the next request.
type client struct {
	base string
	hc   *http.Client
	env  *roundEnv
}

// submitted mirrors the daemon's 202 body.
type submitted struct {
	ID        string `json:"id"`
	EventsURL string `json:"events_url"`
	ResultURL string `json:"result_url"`
}

// campaign runs one spec to its aggregate (JSON bytes).
func (c *client) campaign(ctx context.Context, spec []byte) ([]byte, error) {
	var sub submitted
	t := time.Now()
	err := c.do(ctx, "POST", "/v1/campaigns", spec, http.StatusAccepted, func(body io.Reader) error {
		return json.NewDecoder(body).Decode(&sub)
	})
	c.env.traceCall("server.submit", t)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	state := ""
	err = c.do(ctx, "GET", sub.EventsURL, nil, http.StatusOK, func(body io.Reader) error {
		var err error
		state, err = terminalEvent(body)
		return err
	})
	c.env.traceCall("server.events", t)
	if err != nil {
		return nil, err
	}
	if state != server.StateDone {
		err := fmt.Errorf("campaign %s ended %s", sub.ID, state)
		c.env.led.op(err)
		return nil, err
	}
	t = time.Now()
	var agg []byte
	err = c.do(ctx, "GET", sub.ResultURL+"?format=json", nil, http.StatusOK, func(body io.Reader) error {
		var err error
		agg, err = io.ReadAll(body)
		return err
	})
	c.env.traceCall("server.result", t)
	return agg, err
}

// do issues one request, books it in the ledger (any status but want is
// a failed operation) and hands the body to read.
func (c *client) do(ctx context.Context, method, path string, body []byte, want int, read func(io.Reader) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.env.led.op(err)
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		if resp.StatusCode == http.StatusTooManyRequests {
			c.env.count("server.rejected_429")
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(msg)))
		c.env.led.op(err)
		return err
	}
	err = read(resp.Body)
	c.env.led.op(err)
	return err
}

// terminalEvent reads an SSE stream up to its terminal event and returns
// that event's name (the campaign's final state).
func terminalEvent(body io.Reader) (string, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		name, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		switch name {
		case server.StateDone, server.StateFailed, server.StateCanceled:
			return name, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("event stream ended without a terminal event")
}

// awaitFleet polls the fleet listing until n workers have registered.
func (c *client) awaitFleet(ctx context.Context, n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var fl cluster.FleetResponse
		err := c.do(ctx, "GET", "/v1/workers", nil, http.StatusOK, func(body io.Reader) error {
			return json.NewDecoder(body).Decode(&fl)
		})
		if err != nil {
			return err
		}
		if len(fl.Workers) >= n {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("fleet of %d workers did not register within 30s", n)
}

// scrapeWAL reads the daemon's own write-ahead-log histograms from
// /metrics: fsync count and total fsync and append time.
func (e *roundEnv) scrapeWAL(ctx context.Context, c *client) error {
	var fams map[string]*metrics.ExpoFamily
	err := c.do(ctx, "GET", "/metrics", nil, http.StatusOK, func(body io.Reader) error {
		data, err := io.ReadAll(body)
		if err != nil {
			return err
		}
		fams, err = metrics.ParseExposition(data)
		return err
	})
	if err != nil {
		return err
	}
	value := func(family, sample string) float64 {
		if f := fams[family]; f != nil {
			for _, s := range f.Samples {
				if s.Name == sample {
					return s.Value
				}
			}
		}
		return 0
	}
	e.sample("cluster.wal_fsyncs", value("mflush_wal_fsync_seconds", "mflush_wal_fsync_seconds_count"))
	e.sample("cluster.wal_fsync_s", value("mflush_wal_fsync_seconds", "mflush_wal_fsync_seconds_sum"))
	e.sample("cluster.wal_append_s", value("mflush_wal_append_seconds", "mflush_wal_append_seconds_sum"))
	return nil
}

// leaseLog collects the worker-side protocol calls of one campaign.
type leaseLog struct {
	mu      sync.Mutex
	leases  int
	empty   int
	leaseRT []float64 // round trips of leases that returned work
	postRT  []float64
}

func (l *leaseLog) reset() {
	l.mu.Lock()
	l.leases, l.empty, l.leaseRT, l.postRT = 0, 0, nil, nil
	l.mu.Unlock()
}

// timedTransport times the worker's lease and result round trips from
// the worker's side of the wire. It buffers lease bodies to count the
// jobs they carry.
type timedTransport struct {
	base *http.Transport
	env  *roundEnv
	log  *leaseLog
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.env.tr == nil {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	path := req.URL.Path
	lease, post := strings.HasSuffix(path, "/lease"), strings.HasSuffix(path, "/results")
	if !lease && !post {
		return resp, nil
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	end := time.Now()
	t.log.mu.Lock()
	defer t.log.mu.Unlock()
	if post {
		t.log.postRT = append(t.log.postRT, end.Sub(start).Seconds())
		t.env.tr.add("cluster.results", "", t.env.root, start, end)
		return resp, nil
	}
	var lr cluster.LeaseResponse
	_ = json.Unmarshal(data, &lr) // a non-2xx body is an error message, not a lease
	t.log.leases++
	key := ""
	if len(lr.Jobs) == 0 {
		t.log.empty++
	} else {
		key = lr.Jobs[0].Key
		t.log.leaseRT = append(t.log.leaseRT, end.Sub(start).Seconds())
	}
	t.env.tr.add("cluster.lease", key, t.env.root, start, end)
	return resp, nil
}

// sameBytes reports a mismatch between two encodings that must agree.
func sameBytes(what string, want, got []byte) error {
	if !bytes.Equal(want, got) {
		return fmt.Errorf("%s: %d bytes differ from the %d expected", what, len(got), len(want))
	}
	return nil
}
