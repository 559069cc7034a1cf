package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/sim"
)

// Progress reports one finished (or skipped) job to the scheduler's
// callback. Done counts both, so Done == Total when the campaign ends.
type Progress struct {
	// Done counts jobs finished so far out of Total.
	Done, Total int
	// Job is the job this report is about.
	Job Job
	// Cached marks a job skipped because its key was already in the
	// store (a resumed campaign).
	Cached bool
	// Err is the job's failure, if any; the campaign keeps running the
	// remaining jobs and reports the first error at the end.
	Err error
}

// Scheduler executes campaign jobs on a bounded worker pool through an
// Executor. The zero value runs sim.Run on GOMAXPROCS workers with no
// progress reporting.
type Scheduler struct {
	// Workers bounds parallelism; <= 0 means GOMAXPROCS. Results are
	// ordered by job index regardless of completion order, and the
	// simulator is deterministic per job, so the worker count never
	// changes campaign output.
	Workers int
	// Runner executes one simulation; nil means sim.Run. Tests inject
	// counting or failing runners here.
	Runner func(sim.Options) (*sim.Result, error)
	// GangWidth, when at least 2, batches gang-compatible pending jobs
	// (equal Job.GangKey: one workload, window and machine point) into
	// lockstep gangs of up to that many members, each executed by one
	// GangRunner call. Ganging changes execution only: records, job keys
	// and store contents are byte-identical to solo runs (test-enforced).
	// Jobs with no compatible sibling still run, as width-1 groups
	// through Runner.
	GangWidth int
	// GangRunner executes one lockstep batch; nil means sim.RunGang.
	GangRunner func([]sim.Options) ([]*sim.Result, error)
	// OnProgress, when set, is called serially after every job.
	OnProgress func(Progress)

	// slots, when non-nil (NewShared), bounds total concurrency across
	// every concurrent Run/RunCached call on this scheduler, so a daemon
	// serving many campaigns at once never exceeds one machine-wide
	// parallelism budget.
	slots chan struct{}
}

// NewShared returns a scheduler whose total parallelism across all
// concurrent Run and RunCached calls is bounded by workers (<= 0:
// GOMAXPROCS) — the shape a long-running daemon needs, where each
// client campaign runs in its own goroutine but simulations compete for
// one shared slot pool. A plain Scheduler value bounds each call
// independently instead.
func NewShared(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Scheduler{Workers: workers, slots: make(chan struct{}, workers)}
}

// Run executes jobs, returning one record per job in job order. Jobs
// whose key is already in store are skipped and their stored record
// reused; newly completed jobs are appended to store as they finish, so
// a killed campaign loses at most the jobs in flight. A nil store runs
// everything and persists nothing. Cancelling ctx stops scheduling new
// jobs (in-flight simulations finish) and Run returns ctx.Err() unless
// a simulation failed first.
//
// The pool's unit of work is one GangGroups group of the pending jobs,
// executed by one Executor call: a singleton through Runner, a wider
// group as one lockstep gang through GangRunner. Below GangWidth 2
// every group is a singleton.
func (s *Scheduler) Run(ctx context.Context, jobs []Job, store *Store) ([]Record, error) {
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	exec := Executor{Runner: s.Runner, GangRunner: s.GangRunner}

	records := make([]Record, len(jobs))
	report := newReporter(len(jobs), func(p Progress) {
		if cb := s.OnProgress; cb != nil {
			cb(p)
		}
	})

	// Resolve cached jobs up front so workers only see real work. Job
	// keys hash tweak content, not the display name, so a cached record
	// may carry a stale label from before a spec rename; re-label it
	// from the current job so aggregation cells stay whole.
	var pending []int
	var pendingJobs []Job
	for i, j := range jobs {
		if store != nil {
			if rec, ok := store.Get(j.Key()); ok {
				records[i] = relabel(rec, j)
				report(Progress{Job: j, Cached: true})
				continue
			}
		}
		pending = append(pending, i)
		pendingJobs = append(pendingJobs, j)
	}

	groups := GangGroups(pendingJobs, s.GangWidth)
	groupIdx := make([]int, len(groups))
	for g := range groupIdx {
		groupIdx[g] = g
	}
	// jobErrs is written at distinct indices only (each job belongs to
	// exactly one group) and read after the pool drains, so it needs no
	// lock.
	jobErrs := make([]error, len(jobs))
	gerrs := runPool(ctx, workers, s.slots, len(groups), groupIdx, func(g int) error {
		batch := make([]Job, len(groups[g]))
		for k, pi := range groups[g] {
			batch[k] = pendingJobs[pi]
		}
		var firstErr error
		for k, o := range exec.Execute(batch) {
			i := pending[groups[g][k]]
			err := o.Err
			if err == nil && store != nil {
				err = store.Append(o.Record)
			}
			if err == nil {
				records[i] = o.Record
			} else if firstErr == nil {
				firstErr = err
			}
			jobErrs[i] = err
			report(Progress{Job: jobs[i], Err: err})
		}
		return firstErr
	})
	// Groups the cancelled pool never started record their error at the
	// group level only; spread it over their members so firstError sees
	// every unfinished job.
	for g, err := range gerrs {
		if err == nil {
			continue
		}
		for _, pi := range groups[g] {
			if i := pending[pi]; jobErrs[i] == nil {
				jobErrs[i] = err
			}
		}
	}
	return records, firstError(jobs, jobErrs)
}

// RunCached executes jobs through cache, returning one record per job in
// job order exactly as Run does, but with single-flight semantics: a job
// whose key is already cached (or in flight in another concurrent
// RunCached call on the same cache) is served without a fresh
// simulation and reported with Progress.Cached set. onProgress, when
// non-nil, is called serially after every job — per call, unlike the
// scheduler-wide OnProgress, because a shared scheduler runs many
// campaigns at once and each needs its own progress stream. Cancelling
// ctx stops scheduling new jobs; in-flight simulations finish (and are
// persisted by the cache) and RunCached returns ctx.Err() unless a
// simulation failed first.
func (s *Scheduler) RunCached(ctx context.Context, jobs []Job, cache *Cache, onProgress func(Progress)) ([]Record, error) {
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	records := make([]Record, len(jobs))
	report := newReporter(len(jobs), func(p Progress) {
		if onProgress != nil {
			onProgress(p)
		}
	})

	// Serve completed cache entries up front, before competing for
	// worker or shared-simulation slots: a fully-cached campaign
	// completes instantly even while every slot is busy simulating.
	// In-flight joins still go through the pool (they must wait anyway).
	var pending []int
	for i, j := range jobs {
		if rec, ok := cache.Lookup(j); ok {
			records[i] = rec
			report(Progress{Job: j, Cached: true})
			continue
		}
		pending = append(pending, i)
	}
	errs := runPool(ctx, workers, s.slots, len(jobs), pending, func(i int) error {
		j := jobs[i]
		rec, hit, err := cache.Do(ctx, j)
		if err != nil {
			// A cancelled wait on another caller's in-flight run is not a
			// job failure: leave it unreported, like a job cancellation
			// skipped before it started, so progress consumers never count
			// a clean cancel as a simulation error.
			if !isCtxErr(err) {
				report(Progress{Job: j, Err: err})
			}
			return err
		}
		records[i] = rec
		report(Progress{Job: j, Cached: hit})
		return nil
	})
	return records, firstError(jobs, errs)
}

// newReporter serialises progress callbacks and stamps each report with
// its position: cb runs under one mutex, so campaign consumers never
// need their own ordering.
func newReporter(total int, cb func(Progress)) func(Progress) {
	var mu sync.Mutex
	done := 0
	return func(p Progress) {
		mu.Lock()
		done++
		p.Done, p.Total = done, total
		cb(p)
		mu.Unlock()
	}
}

// isCtxErr distinguishes cancellation from real failure.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// firstError folds the pool's per-index errors: the first real
// simulation failure in job order wins; bare cancellations (no sim
// error) collapse into the context's own error.
func firstError(jobs []Job, errs []error) error {
	var ctxErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if isCtxErr(err) {
			if ctxErr == nil {
				ctxErr = err
			}
			continue
		}
		return fmt.Errorf("campaign: %s: %w", jobs[i], err)
	}
	return ctxErr
}

// RunAll executes raw sim.Options concurrently (bounded by GOMAXPROCS)
// and returns results in input order — the scheduler entry point for
// callers like internal/experiments whose grids are built in Go rather
// than declared as a Spec.
func RunAll(ctx context.Context, opts []sim.Options) ([]*sim.Result, error) {
	results := make([]*sim.Result, len(opts))
	all := make([]int, len(opts))
	for i := range all {
		all[i] = i
	}
	errs := runPool(ctx, runtime.GOMAXPROCS(0), nil, len(opts), all, func(i int) error {
		var err error
		results[i], err = sim.Run(opts[i])
		return err
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("campaign: %s/%s: %w",
				opts[i].Workload.Name, opts[i].Policy, err)
		}
	}
	return results, nil
}

// runPool is the shared bounded worker pool: it executes fn(i) for each
// listed index on workers goroutines and returns n per-index errors.
// Once ctx is cancelled, indices not yet started record ctx.Err()
// without running fn; work already in flight finishes. When slots is
// non-nil (a shared scheduler), each fn call additionally holds one slot
// for its duration, bounding total parallelism across concurrent pools.
func runPool(ctx context.Context, workers int, slots chan struct{}, n int, indices []int, fn func(int) error) []error {
	errs := make([]error, n)
	// More goroutines than work items would just park on the closed
	// channel; the clamp matters in daemon cluster mode, where the pool
	// bound is sized for the whole admission queue rather than the
	// local core count.
	if workers > len(indices) {
		workers = len(indices)
	}
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				if slots != nil {
					select {
					case slots <- struct{}{}:
					case <-ctx.Done():
						errs[i] = ctx.Err()
						continue
					}
				}
				errs[i] = fn(i)
				if slots != nil {
					<-slots
				}
			}
		}()
	}
	for _, i := range indices {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	return errs
}
