package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"repro/internal/campaign"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Worker is the fleet member: a pull loop over a coordinator daemon's
// /v1/workers HTTP endpoints. It registers, leases jobs up to its
// capacity, simulates them on a local goroutine pool, posts results as
// they finish, and heartbeats while busy. Cancelling the Run context
// drains: no new leases, in-flight simulations finish and post, then
// the worker deregisters — the SIGTERM path of cmd/mflushworker. If the
// coordinator drops the worker (missed heartbeats, daemon restart) the
// loop re-registers under a fresh ID and carries on.
type Worker struct {
	// Base is the coordinator's base URL (e.g. "http://127.0.0.1:8080").
	Base string
	// Name labels the worker in fleet listings; defaults to "worker".
	Name string
	// Capacity bounds parallel simulations (<= 0: 1).
	Capacity int
	// Runner executes one simulation; nil means sim.Run. Tests inject
	// counting or blocking runners.
	Runner func(sim.Options) (*sim.Result, error)
	// GangWidth, when at least 2, batches gang-compatible jobs from one
	// lease (equal campaign GangKey: one workload, window and machine
	// point) into lockstep gangs of up to that many members, executed by
	// one GangRunner call on one goroutine. Records posted back are
	// byte-identical to solo execution (test-enforced); ganging only
	// changes how the leased work is scheduled locally.
	GangWidth int
	// GangRunner executes one lockstep batch; nil means sim.RunGang.
	GangRunner func([]sim.Options) ([]*sim.Result, error)
	// Client issues the HTTP calls; nil means http.DefaultClient.
	Client *http.Client
	// LeaseWait is the long-poll duration for an empty queue (<= 0: 2s).
	LeaseWait time.Duration
	// Logf, when set, receives one line per lifecycle event and job.
	Logf func(format string, args ...any)

	// m holds the worker's own metric handles (RegisterMetrics). The
	// zero value works: nil metric receivers are no-ops.
	m workerMetrics
}

// workerMetrics is the worker-process observability surface, served by
// cmd/mflushworker's -metrics-addr endpoint.
type workerMetrics struct {
	jobsCompleted *metrics.Counter
	jobsFailed    *metrics.Counter
	simCycles     *metrics.Counter
	cyclesPerSec  *metrics.Gauge
	inflight      *metrics.Gauge
	backoff       *metrics.Gauge
}

// RegisterMetrics publishes the worker's metrics into r: lifetime
// completed/failed job counters, total simulated cycles, the rate of
// the last successful job, current in-flight simulations, and the pull
// loop's current retry backoff (0 while the coordinator is healthy).
// Call before Run.
func (w *Worker) RegisterMetrics(r *metrics.Registry) {
	w.m = workerMetrics{
		jobsCompleted: r.Counter("mflush_worker_jobs_completed_total", "Jobs this worker finished successfully."),
		jobsFailed:    r.Counter("mflush_worker_jobs_failed_total", "Jobs whose simulation errored on this worker."),
		simCycles:     r.Counter("mflush_worker_sim_cycles_total", "Simulated cycles (warmup included) across all completed jobs."),
		cyclesPerSec:  r.Gauge("mflush_worker_cycles_per_sec", "Simulation rate of the most recent successful job."),
		inflight:      r.Gauge("mflush_worker_inflight", "Simulations currently running."),
		backoff:       r.Gauge("mflush_worker_backoff_seconds", "Current pull-loop retry backoff; 0 while the coordinator is reachable."),
	}
}

// outcome is one finished job travelling from a simulation goroutine
// back to the posting loop, with the liveness detail the next heartbeat
// reports.
type outcome struct {
	rec  campaign.Record
	fail *JobFailure
	// key is the job's content hash, set for success and failure alike.
	key string
	// cycles and secs describe a successful simulation: cycles executed
	// (warmup included) over wall-clock seconds.
	cycles float64
	secs   float64
}

// retryDelay paces the pull loop's retries against an unreachable or
// unconverged coordinator: capped exponential backoff (250ms doubling
// to 10s) with jitter on the upper half of each step, so a fleet
// restarted together does not hammer a recovering daemon in lockstep.
// reset after any success, so an isolated hiccup stays cheap. The
// optional gauge mirrors the current step so a stuck worker's backoff
// state is visible on its /metrics endpoint.
type retryDelay struct {
	d time.Duration
	g *metrics.Gauge
}

// next returns the delay to sleep before the following attempt.
func (r *retryDelay) next() time.Duration {
	if r.d == 0 {
		r.d = 250 * time.Millisecond
	} else if r.d *= 2; r.d > 10*time.Second {
		r.d = 10 * time.Second
	}
	half := r.d / 2
	d := half + rand.N(half+1)
	r.g.Set(d.Seconds())
	return d
}

// reset returns the backoff to its initial step.
func (r *retryDelay) reset() {
	r.d = 0
	r.g.Set(0)
}

// Run executes the pull loop until ctx is cancelled, then drains and
// deregisters. Registration retries with capped jittered backoff for as
// long as ctx lives, so starting the worker before the daemon is
// reachable is fine; the only error Run returns is a cancellation that
// arrives before any registration ever succeeded.
func (w *Worker) Run(ctx context.Context) error {
	capacity := w.Capacity
	if capacity <= 0 {
		capacity = 1
	}
	name := w.Name
	if name == "" {
		name = "worker"
	}
	leaseWait := w.LeaseWait
	if leaseWait <= 0 {
		leaseWait = 2 * time.Second
	}

	// Register with backoff: a worker started before its daemon is up
	// (or while it is replaying a WAL after a crash) keeps knocking and
	// joins the fleet on its own once the daemon converges. Only a
	// cancellation before any registration succeeds returns an error.
	retry := retryDelay{g: w.m.backoff}
	id, ttl, err := w.register(ctx, name, capacity)
	for err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("cluster: worker register: %w", err)
		}
		d := retry.next()
		w.logf("register: %v (retrying in %s)", err, d.Round(time.Millisecond))
		w.sleep(ctx, d)
		id, ttl, err = w.register(ctx, name, capacity)
	}
	retry.reset()
	w.logf("registered as %s (capacity %d, lease TTL %s)", id, capacity, ttl)

	heartbeat := time.NewTicker(ttl / 3)
	defer heartbeat.Stop()
	results := make(chan outcome, capacity)
	inflight := 0
	// live is the liveness detail every lease/heartbeat call reports:
	// lifetime counters, so they survive re-registration.
	var live Liveness

	// reregister obtains a fresh identity after the coordinator forgot
	// us (it restarted, or we missed heartbeats) and adopts the whole
	// contract — the TTL may have changed with it, so the heartbeat
	// cadence must follow or a now-shorter TTL would drop us after
	// every heartbeat.
	reregister := func(rctx context.Context) bool {
		newID, newTTL, err := w.register(rctx, name, capacity)
		if err != nil {
			return false
		}
		w.logf("re-registered as %s (lease TTL %s)", newID, newTTL)
		id, ttl = newID, newTTL
		heartbeat.Reset(ttl / 3)
		return true
	}

	// post ships one outcome, retrying transient failures and
	// re-registering when the coordinator forgot us. It must not drop a
	// result while the coordinator still counts us alive: our ongoing
	// heartbeats would keep the job leased to us forever and wedge its
	// campaign. So after the retries are spent, we abandon our identity
	// (best-effort deregister, then re-register fresh) — re-queueing
	// every lease we hold so another worker re-runs the job. It runs on
	// its own bounded context, not the Run ctx: results computed before
	// a drain began must still be delivered after it.
	post := func(o outcome) {
		postCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		req := ResultsRequest{}
		if o.fail != nil {
			req.Failures = []JobFailure{*o.fail}
		} else {
			req.Records = []campaign.Record{o.rec}
		}
		var resp ResultsResponse
		for attempt, backoff := 0, 100*time.Millisecond; attempt < 4; attempt, backoff = attempt+1, backoff*2 {
			err := w.call(postCtx, "POST", "/v1/workers/"+id+"/results", req, &resp)
			if err == nil {
				return
			}
			if isUnknownWorker(err) {
				// Our leases were already re-queued with our old identity;
				// the result is only a harmless duplicate now, but deliver
				// it if a fresh registration succeeds.
				if !reregister(postCtx) {
					return
				}
				continue
			}
			w.logf("post attempt %d: %v", attempt+1, err)
			w.sleep(postCtx, backoff)
		}
		// Undeliverable while still registered: abandon the identity so
		// the coordinator re-queues our leases instead of trusting us.
		w.logf("abandoning identity %s: result undeliverable, leases must be re-issued", id)
		_ = w.call(postCtx, "DELETE", "/v1/workers/"+id, nil, nil)
		reregister(postCtx)
	}
	exec := campaign.Executor{Runner: w.Runner, GangRunner: w.GangRunner}
	// execute runs one batch (one GangGroups group) on its own goroutine
	// and sends one outcome per member. The batch's wall-clock is
	// shared by its members, so it is attributed evenly to keep the
	// per-job rate metrics meaningful.
	execute := func(batch []campaign.Job) {
		inflight += len(batch)
		w.m.inflight.Set(float64(inflight))
		go func() {
			began := time.Now()
			outs := exec.Execute(batch)
			secs := time.Since(began).Seconds() / float64(len(batch))
			for k, o := range outs {
				key := batch[k].Key()
				if o.Err != nil {
					results <- outcome{fail: &JobFailure{Key: key, Error: o.Err.Error()}, key: key}
					continue
				}
				results <- outcome{
					rec:    o.Record,
					key:    key,
					cycles: float64(batch[k].Cycles + batch[k].Warmup),
					secs:   secs,
				}
			}
		}()
	}
	// startBatch dispatches one lease's worth of jobs. A wire that does
	// not decode, or whose key does not round-trip, fails on its own;
	// the rest run in GangGroups groups (singletons below GangWidth 2).
	startBatch := func(wires []campaign.WireJob) {
		var jobs []campaign.Job
		for _, wire := range wires {
			j, err := wire.Job()
			if err == nil && j.Key() != wire.Key {
				err = fmt.Errorf("cluster: job key mismatch (worker and coordinator builds differ?): computed %s, leased %s", j.Key(), wire.Key)
			}
			if err != nil {
				inflight++
				w.m.inflight.Set(float64(inflight))
				fail := outcome{fail: &JobFailure{Key: wire.Key, Error: err.Error()}, key: wire.Key}
				go func() { results <- fail }()
				continue
			}
			jobs = append(jobs, j)
		}
		for _, group := range campaign.GangGroups(jobs, w.GangWidth) {
			batch := make([]campaign.Job, len(group))
			for k, gi := range group {
				batch[k] = jobs[gi]
			}
			if len(batch) > 1 {
				w.logf("gang of %d (%s ...)", len(batch), batch[0].Key())
			}
			execute(batch)
		}
	}
	// finish books one completed outcome — liveness for the next
	// heartbeat, the worker's own metrics — then ships it.
	finish := func(o outcome) {
		inflight--
		w.m.inflight.Set(float64(inflight))
		live.LastJobKey = o.key
		live.JobsDone++
		if o.fail != nil {
			w.m.jobsFailed.Inc()
		} else {
			w.m.jobsCompleted.Inc()
			w.m.simCycles.Add(uint64(o.cycles))
			if o.secs > 0 {
				live.CyclesPerSec = o.cycles / o.secs
				w.m.cyclesPerSec.Set(live.CyclesPerSec)
			}
		}
		post(o)
	}

	for ctx.Err() == nil {
		// Ship everything already finished before asking for more work.
		for drained := false; !drained; {
			select {
			case o := <-results:
				finish(o)
			default:
				drained = true
			}
		}
		if free := capacity - inflight; free > 0 {
			// With work in flight, keep the poll short: a completion
			// sitting in the results channel must not wait out a long
			// poll before it is posted (campaign tails would pay up to
			// LeaseWait of latency per job otherwise).
			wait := leaseWait
			if inflight > 0 && wait > 100*time.Millisecond {
				wait = 100 * time.Millisecond
			}
			jobs, err := w.lease(ctx, id, free, wait, live)
			if isUnknownWorker(err) {
				if !reregister(ctx) {
					w.sleep(ctx, retry.next())
				} else {
					retry.reset()
				}
				continue
			}
			if err != nil {
				if ctx.Err() == nil {
					d := retry.next()
					w.logf("lease: %v (retrying in %s)", err, d.Round(time.Millisecond))
					w.sleep(ctx, d)
				}
				continue
			}
			retry.reset()
			for _, wire := range jobs {
				w.logf("leased %s", wire.Key)
			}
			startBatch(jobs)
			continue
		}
		// Full: wait for a completion, heartbeating so long simulations
		// do not get our leases re-issued under us.
		select {
		case o := <-results:
			finish(o)
		case <-heartbeat.C:
			if _, err := w.lease(ctx, id, 0, 0, live); isUnknownWorker(err) {
				reregister(ctx)
			}
		case <-ctx.Done():
		}
	}

	// Drain: in-flight simulations finish and post, then deregister.
	// The Run ctx is gone, so drain-side HTTP runs on its own context —
	// and the heartbeat keeps going: a drain longer than the lease TTL
	// must not get our leases reaped and re-run elsewhere while we are
	// still finishing them.
	w.logf("draining (%d in flight)", inflight)
	drainCtx := context.Background()
	for inflight > 0 {
		select {
		case o := <-results:
			finish(o)
		case <-heartbeat.C:
			if _, err := w.lease(drainCtx, id, 0, 0, live); isUnknownWorker(err) {
				reregister(drainCtx)
			}
		}
	}
	if err := w.call(drainCtx, "DELETE", "/v1/workers/"+id, nil, nil); err != nil && !isUnknownWorker(err) {
		w.logf("deregister: %v", err)
	}
	w.logf("drained")
	return nil
}

// register obtains a worker identity, retrying is the caller's concern.
func (w *Worker) register(ctx context.Context, name string, capacity int) (id string, ttl time.Duration, err error) {
	var resp RegisterResponse
	err = w.call(ctx, "POST", "/v1/workers", RegisterRequest{Name: name, Capacity: capacity}, &resp)
	if err != nil {
		return "", 0, err
	}
	ttl = time.Duration(resp.LeaseTTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	return resp.ID, ttl, nil
}

// lease asks for up to max jobs, long-polling wait; max 0 heartbeats.
// Every call carries the worker's current liveness detail.
func (w *Worker) lease(ctx context.Context, id string, max int, wait time.Duration, live Liveness) ([]campaign.WireJob, error) {
	var resp LeaseResponse
	err := w.call(ctx, "POST", "/v1/workers/"+id+"/lease",
		LeaseRequest{
			Max: max, WaitMS: wait.Milliseconds(),
			LastJobKey: live.LastJobKey, JobsDone: live.JobsDone, CyclesPerSec: live.CyclesPerSec,
		}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.Jobs, nil
}

// statusError is a non-2xx daemon response: the status code plus the
// error envelope's message.
type statusError struct {
	code int
	msg  string
}

// Error renders the daemon's message with its status code.
func (e *statusError) Error() string { return fmt.Sprintf("%d: %s", e.code, e.msg) }

// isUnknownWorker reports the coordinator having dropped our ID (404).
func isUnknownWorker(err error) bool {
	se, ok := err.(*statusError)
	return ok && se.code == http.StatusNotFound
}

// call issues one JSON request against the coordinator. The drain path
// passes a background ctx so final posts are not cut short; everything
// else uses the Run ctx.
func (w *Worker) call(ctx context.Context, method, path string, body, out any) error {
	client := w.Client
	if client == nil {
		client = http.DefaultClient
	}
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.Base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var envelope struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&envelope)
		return &statusError{code: resp.StatusCode, msg: envelope.Error}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sleep waits d or until ctx cancels, whichever is first.
func (w *Worker) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// logf routes through Logf when set.
func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}
