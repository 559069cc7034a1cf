package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/simtest"
)

// testJobs expands a small campaign for queue tests.
func testJobs(t *testing.T, seeds ...uint64) []campaign.Job {
	t.Helper()
	jobs, err := campaign.Spec{
		Workloads: []string{"2W1"},
		Policies:  []string{"ICOUNT", "MFLUSH"},
		Seeds:     seeds,
		Cycles:    1000,
	}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// testRecord fabricates the record a worker would post for j.
func testRecord(t *testing.T, j campaign.Job) campaign.Record {
	t.Helper()
	o, err := j.SimOptions()
	if err != nil {
		t.Fatal(err)
	}
	res, err := simtest.New().Run(o)
	if err != nil {
		t.Fatal(err)
	}
	return campaign.NewRecord(j, res)
}

func newTestCoordinator(t *testing.T, ttl time.Duration) *Coordinator {
	t.Helper()
	c := NewCoordinator(Config{LeaseTTL: ttl})
	t.Cleanup(c.Close)
	return c
}

func TestDispatchLeaseCompleteRoundTrip(t *testing.T) {
	c := newTestCoordinator(t, time.Minute)
	w, err := c.Register("w1", 4)
	if err != nil {
		t.Fatal(err)
	}
	j := testJobs(t, 1)[0]

	type result struct {
		rec campaign.Record
		err error
	}
	done := make(chan result, 1)
	go func() {
		rec, err := c.Dispatch(context.Background(), j)
		done <- result{rec, err}
	}()

	// The worker leases the job (long-polling across the dispatch race).
	batch, err := c.Lease(w.ID, 4, time.Second, Liveness{})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 || batch[0].Key != j.Key() {
		t.Fatalf("lease = %+v, want the dispatched job", batch)
	}
	rec := testRecord(t, j)
	accepted, dups, err := c.Complete(w.ID, []campaign.Record{rec}, nil)
	if err != nil || accepted != 1 || dups != 0 {
		t.Fatalf("Complete = %d/%d, %v", accepted, dups, err)
	}

	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.rec.Key != j.Key() || r.rec.Summary.IPC != rec.Summary.IPC {
		t.Fatalf("dispatched record = %+v", r.rec)
	}
	// The worker's stats reflect the completion.
	ws := c.Workers()
	if len(ws) != 1 || ws[0].Completed != 1 || ws[0].Leased != 0 {
		t.Fatalf("fleet after completion = %+v", ws)
	}
}

func TestDispatchWithoutWorkersFailsFast(t *testing.T) {
	c := newTestCoordinator(t, time.Minute)
	if _, err := c.Dispatch(context.Background(), testJobs(t, 1)[0]); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("dispatch into empty fleet = %v, want ErrNoWorkers", err)
	}
}

// TestLeaseReissuedAfterWorkerDeath is the tentpole invariant at queue
// level: a worker that leases a job and then goes silent loses the
// lease after the TTL, and the job is re-issued to a live worker whose
// result completes the original dispatch.
func TestLeaseReissuedAfterWorkerDeath(t *testing.T) {
	const ttl = 150 * time.Millisecond
	c := newTestCoordinator(t, ttl)
	dead, err := c.Register("doomed", 1)
	if err != nil {
		t.Fatal(err)
	}
	live, err := c.Register("survivor", 1)
	if err != nil {
		t.Fatal(err)
	}
	j := testJobs(t, 1)[0]

	done := make(chan error, 1)
	go func() {
		_, err := c.Dispatch(context.Background(), j)
		done <- err
	}()

	// The doomed worker takes the job ... and is never heard from again.
	batch, err := c.Lease(dead.ID, 1, time.Second, Liveness{})
	if err != nil || len(batch) != 1 {
		t.Fatalf("doomed lease = %v, %v", batch, err)
	}

	// The survivor heartbeats and polls; after the TTL it receives the
	// re-issued job.
	var reissued []campaign.WireJob
	simtest.WaitFor(t, 10*time.Second, func() bool {
		reissued, err = c.Lease(live.ID, 1, 50*time.Millisecond, Liveness{})
		if err != nil {
			t.Fatal(err)
		}
		return len(reissued) > 0
	}, "lease never re-issued after worker death")
	if reissued[0].Key != j.Key() {
		t.Fatalf("re-issued job = %+v", reissued[0])
	}
	if _, _, err := c.Complete(live.ID, []campaign.Record{testRecord(t, j)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("dispatch after re-issue: %v", err)
	}

	// The dead worker's identity is gone; its late result is refused.
	if _, _, err := c.Complete(dead.ID, []campaign.Record{testRecord(t, j)}, nil); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("dead worker Complete = %v, want ErrUnknownWorker", err)
	}
}

// TestDuplicateResultDiscarded: the second result for a key settles
// nothing and is counted as a duplicate.
func TestDuplicateResultDiscarded(t *testing.T) {
	c := newTestCoordinator(t, time.Minute)
	w, err := c.Register("w1", 2)
	if err != nil {
		t.Fatal(err)
	}
	j := testJobs(t, 1)[0]
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Dispatch(context.Background(), j)
	}()
	if _, err := c.Lease(w.ID, 1, time.Second, Liveness{}); err != nil {
		t.Fatal(err)
	}
	rec := testRecord(t, j)
	if a, d, _ := c.Complete(w.ID, []campaign.Record{rec}, nil); a != 1 || d != 0 {
		t.Fatalf("first Complete = %d accepted, %d duplicates", a, d)
	}
	if a, d, _ := c.Complete(w.ID, []campaign.Record{rec}, nil); a != 0 || d != 1 {
		t.Fatalf("second Complete = %d accepted, %d duplicates", a, d)
	}
	<-done
}

// TestFleetDeathStrandsToErrNoWorkers: when the last worker dies with
// jobs queued or leased, every dispatcher is released with ErrNoWorkers
// (the Router's cue to fall back to local simulation) instead of
// waiting for a fleet that no longer exists.
func TestFleetDeathStrandsToErrNoWorkers(t *testing.T) {
	const ttl = 150 * time.Millisecond
	c := newTestCoordinator(t, ttl)
	w, err := c.Register("only", 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := testJobs(t, 1) // two jobs: one leased, one still pending
	errs := make(chan error, len(jobs))
	for _, j := range jobs {
		go func(j campaign.Job) {
			_, err := c.Dispatch(context.Background(), j)
			errs <- err
		}(j)
	}
	if _, err := c.Lease(w.ID, 1, time.Second, Liveness{}); err != nil {
		t.Fatal(err)
	}
	// The only worker goes silent; both dispatchers must strand out.
	for i := 0; i < len(jobs); i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrNoWorkers) {
				t.Fatalf("stranded dispatch = %v, want ErrNoWorkers", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("dispatcher still waiting on a dead fleet")
		}
	}
}

// TestDispatchCancelledWhilePendingWithdraws: cancelling the dispatch
// context while the job is unleased removes it from the queue.
func TestDispatchCancelledWhilePendingWithdraws(t *testing.T) {
	c := newTestCoordinator(t, time.Minute)
	if _, err := c.Register("idle", 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Dispatch(ctx, testJobs(t, 1)[0])
		done <- err
	}()
	for c.Pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pending dispatch = %v", err)
	}
	if c.Pending() != 0 {
		t.Fatalf("withdrawn job still pending (%d)", c.Pending())
	}
}

// TestDispatchRidesOutCancellationOnceLeased: once a worker holds the
// job, cancelling the dispatcher does not abandon it — like a local
// simulation, in-flight fleet work finishes and its record is returned.
func TestDispatchRidesOutCancellationOnceLeased(t *testing.T) {
	c := newTestCoordinator(t, time.Minute)
	w, err := c.Register("w1", 1)
	if err != nil {
		t.Fatal(err)
	}
	j := testJobs(t, 1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		rec campaign.Record
		err error
	}
	done := make(chan result, 1)
	go func() {
		rec, err := c.Dispatch(ctx, j)
		done <- result{rec, err}
	}()
	if _, err := c.Lease(w.ID, 1, time.Second, Liveness{}); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case r := <-done:
		t.Fatalf("dispatch returned %v before the leased job completed", r.err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, _, err := c.Complete(w.ID, []campaign.Record{testRecord(t, j)}, nil); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil || r.rec.Key != j.Key() {
		t.Fatalf("ridden-out dispatch = %+v, %v", r.rec, r.err)
	}
}

// TestWorkerFailurePropagates: a worker-side simulation error fails the
// waiting dispatch with the worker's message.
func TestWorkerFailurePropagates(t *testing.T) {
	c := newTestCoordinator(t, time.Minute)
	w, err := c.Register("w1", 1)
	if err != nil {
		t.Fatal(err)
	}
	j := testJobs(t, 1)[0]
	done := make(chan error, 1)
	go func() {
		_, err := c.Dispatch(context.Background(), j)
		done <- err
	}()
	if _, err := c.Lease(w.ID, 1, time.Second, Liveness{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Complete(w.ID, nil, []JobFailure{{Key: j.Key(), Error: "synthetic boom"}}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "synthetic boom") {
		t.Fatalf("failed dispatch = %v", err)
	}
}

// TestCloseReleasesEverything: Close fails queued dispatches and all
// later calls.
func TestCloseReleasesEverything(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: time.Minute})
	if _, err := c.Register("w1", 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Dispatch(context.Background(), testJobs(t, 1)[0])
		done <- err
	}()
	for c.Pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	c.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("dispatch across Close = %v", err)
	}
	if _, err := c.Register("late", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Register after Close = %v", err)
	}
	c.Close() // idempotent
}

// TestDeregisterReissuesImmediately: a clean deregister does not wait
// out the TTL before re-queueing the worker's leases.
func TestDeregisterReissuesImmediately(t *testing.T) {
	c := newTestCoordinator(t, time.Minute) // TTL long: re-issue must not depend on it
	leaver, err := c.Register("leaver", 1)
	if err != nil {
		t.Fatal(err)
	}
	stayer, err := c.Register("stayer", 1)
	if err != nil {
		t.Fatal(err)
	}
	j := testJobs(t, 1)[0]
	done := make(chan error, 1)
	go func() {
		_, err := c.Dispatch(context.Background(), j)
		done <- err
	}()
	if _, err := c.Lease(leaver.ID, 1, time.Second, Liveness{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Deregister(leaver.ID); err != nil {
		t.Fatal(err)
	}
	batch, err := c.Lease(stayer.ID, 1, time.Second, Liveness{})
	if err != nil || len(batch) != 1 || batch[0].Key != j.Key() {
		t.Fatalf("post-deregister lease = %+v, %v", batch, err)
	}
	if _, _, err := c.Complete(stayer.ID, []campaign.Record{testRecord(t, j)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestWorkerIDsNeverCollideAcrossCoordinators: IDs carry a random
// per-coordinator epoch, so an ID issued before a daemon restart can
// never resolve against the restarted coordinator — a stale worker
// must 404 and re-register, not impersonate (and keep alive) whichever
// new worker drew the same sequence number.
func TestWorkerIDsNeverCollideAcrossCoordinators(t *testing.T) {
	c1 := newTestCoordinator(t, time.Minute)
	c2 := newTestCoordinator(t, time.Minute)
	w1, err := c1.Register("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := c2.Register("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if w1.ID == w2.ID {
		t.Fatalf("two coordinators issued the same worker ID %s", w1.ID)
	}
	if _, err := c2.Lease(w1.ID, 1, 0, Liveness{}); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("stale-coordinator ID accepted by new coordinator: %v", err)
	}
}

// TestRouterFallsBackWithoutFleet: the router runs jobs locally when no
// coordinator is attached and when the fleet is empty.
func TestRouterFallsBackWithoutFleet(t *testing.T) {
	j := testJobs(t, 1)[0]
	for name, coord := range map[string]*Coordinator{
		"nil-coordinator": nil,
		"empty-fleet":     newTestCoordinator(t, time.Minute),
	} {
		r := simtest.New()
		router := NewRouter(coord, 2, r.Run)
		rec, err := router.Run(context.Background(), j)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.Key != j.Key() || r.Total() != 1 {
			t.Fatalf("%s: rec=%+v local runs=%d", name, rec, r.Total())
		}
	}
}

// TestRouterLocalBoundHonoursContext: a job waiting for a local slot
// aborts when its campaign is cancelled.
func TestRouterLocalBoundHonoursContext(t *testing.T) {
	r := simtest.New()
	r.Gate = make(chan struct{})
	defer close(r.Gate)
	router := NewRouter(nil, 1, r.Run)
	jobs := testJobs(t, 1)
	go router.Run(context.Background(), jobs[0]) // occupies the only slot
	for r.Total() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := router.Run(ctx, jobs[1]); !errors.Is(err, context.Canceled) {
		t.Fatalf("slot wait under cancelled ctx = %v", err)
	}
}
