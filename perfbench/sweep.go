package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/campaign"
)

// sweepResubmits is the read phase per round. Each cached rerun is
// scaled by the reference operation timed right after it, so the count
// need not span the host's speed states; it is kept small because the
// samples stay in memory for the whole run.
const sweepResubmits = 5000

// sweepSetups is how many times a round sets the sweep up.
const sweepSetups = 9

// sweepSpec is the paper's Figure 8 policy sweep on its contended
// four-core, eight-thread mix, in the shape campaigns run: 300k warm-up
// plus 200k measured cycles per job.
func sweepSpec(seed uint64) campaign.Spec {
	return campaign.Spec{
		Workloads: []string{"8W3"},
		Policies:  []string{"ICOUNT", "FLUSH-S30", "FLUSH-S100", "MFLUSH"},
		Seeds:     []uint64{seed},
		Warmup:    300_000,
		Cycles:    200_000,
	}
}

// sweep runs one spec through an in-process campaign.Scheduler on an
// on-disk store: solo (every job through the Runner) or as one width-4
// gang (every job through the GangRunner).
type sweep struct {
	gang bool
}

// warmUp is false: nothing a sweep round leaves in the process makes a
// later round faster, so every round is reported.
func (sweep) warmUp() bool { return false }

func (w sweep) round(ctx context.Context, env *roundEnv) (r roundResult, err error) {
	// The peak covers set-up and the fresh campaign; the read phase
	// holds less, and runs without the sampler's wake-ups.
	peak := startHeapPeak()
	defer peak.stop()

	// Set-up takes a fraction of a millisecond, so a round sets up
	// sweepSetups times and runs its campaign on the last store.
	setup := env.tr.start("setup", "", env.root)
	var store *campaign.Store
	var jobs []campaign.Job
	r.refSetupSecs = refStoreOpenSecs
	for i := 0; i < sweepSetups; i++ {
		if store != nil {
			store.Close()
		}
		t0 := time.Now()
		store, jobs, err = setUpSweep(env)
		if err != nil {
			return r, err
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		ref, err := refStoreOpen(env)
		if err != nil {
			return r, err
		}
		r.setupRefs = append(r.setupRefs, ref)
	}
	defer store.Close()
	spec := sweepSpec(env.cfg.seed)
	sched := &campaign.Scheduler{Workers: env.cfg.workers}
	if w.gang {
		sched.GangWidth = len(jobs)
	}
	env.tr.end(setup)

	camp := env.tr.start("campaign", "", env.root)
	if env.tr != nil {
		env.probe.bind(jobs, camp)
		sched.Runner = env.probe.solo
		sched.GangRunner = env.probe.gang
	}
	a0, _ := heapCounters()
	t1 := time.Now()
	recs, err := sched.Run(ctx, jobs, store)
	cells := campaign.Aggregate(recs)
	r.campaign = time.Since(t1).Seconds()
	a1, _ := heapCounters()
	env.tr.end(camp)
	env.led.op(err)
	if err != nil {
		return r, fmt.Errorf("fresh campaign: %w", err)
	}
	env.led.ops(len(jobs)) // every job simulated and persisted
	r.jobs = len(jobs)
	r.allocBytes = a1 - a0
	for _, j := range jobs {
		r.cycles += j.Warmup + j.Cycles
	}
	r.checkRecords(env, recs)
	if env.index == 0 {
		env.led.op(matchSweepDigest(env.cfg.root, env.cfg.seed, r.digest))
	}
	want, err := json.Marshal(cells)
	if err != nil {
		return r, err
	}

	// Read phase: resubmit the sweep as a long-lived campaign service
	// holding the now-complete store would serve it — expand the spec,
	// schedule (every job is served from the store without simulating)
	// and aggregate. The store is not reopened: reopening is a handful
	// of file-system calls whose latency on a shared virtual disk flips
	// between two levels 1.5× apart, swamping the campaign layer's work.
	r.peakHeap = peak.stop()
	// Collect the fresh campaign's garbage first, so the read phase
	// starts from the same heap state in every round.
	runtime.GC()
	r.refCachedSecs = refOpSecs
	read := env.tr.start("read", "", env.root)
	for i := 0; i < sweepResubmits; i++ {
		t := time.Now()
		got, err := w.resume(ctx, env, store, spec)
		r.cached = append(r.cached, time.Since(t).Seconds())
		r.cachedRef = append(r.cachedRef, refOp())
		env.led.op(err)
		if err != nil {
			return r, fmt.Errorf("cached sweep: %w", err)
		}
		data, _ := json.Marshal(got)
		env.led.op(sameBytes("cached sweep aggregate", want, data))
	}
	env.tr.end(read)

	if env.tr != nil {
		dir, err := env.freshDir()
		if err != nil {
			return r, err
		}
		if err := env.layerCalls(spec, jobs, recs, store, dir); err != nil {
			return r, err
		}
	}
	if env.index == 0 {
		env.led.op(w.crossCheck(ctx, env))
	}
	return r, nil
}

// setUpSweep opens a fresh store and expands the sweep's spec.
func setUpSweep(env *roundEnv) (*campaign.Store, []campaign.Job, error) {
	dir, err := env.freshDir()
	if err != nil {
		return nil, nil, err
	}
	store, err := campaign.OpenStore(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		return nil, nil, err
	}
	jobs, err := sweepSpec(env.cfg.seed).Jobs()
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	return store, jobs, nil
}

// resume is one cached rerun of the sweep on the round's store.
func (w sweep) resume(ctx context.Context, env *roundEnv, store *campaign.Store, spec campaign.Spec) ([]campaign.Cell, error) {
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	cached := 0
	sched := &campaign.Scheduler{Workers: env.cfg.workers,
		OnProgress: func(p campaign.Progress) {
			if p.Cached {
				cached++
			}
		}}
	recs, err := sched.Run(ctx, jobs, store)
	if err != nil {
		return nil, err
	}
	if cached != len(jobs) {
		return nil, fmt.Errorf("%d of %d jobs simulated again", len(jobs)-cached, len(jobs))
	}
	return campaign.Aggregate(recs), nil
}

// crossCheck runs the sweep's jobs over a short window on both execution
// paths and requires byte-identical records: the scheduler promises that
// ganging changes execution only. It runs outside every timed region.
func (w sweep) crossCheck(ctx context.Context, env *roundEnv) error {
	spec := sweepSpec(env.cfg.seed)
	spec.Warmup, spec.Cycles = 2_000, 3_000
	jobs, err := spec.Jobs()
	if err != nil {
		return err
	}
	solo, err := (&campaign.Scheduler{Workers: env.cfg.workers}).Run(ctx, jobs, nil)
	if err != nil {
		return err
	}
	gang, err := (&campaign.Scheduler{Workers: env.cfg.workers, GangWidth: len(jobs)}).Run(ctx, jobs, nil)
	if err != nil {
		return err
	}
	return sameDigest("short sweep, gang vs solo", digest(solo), digest(gang))
}

// matchSweepDigest compares d, the sweep's full-scale record digest,
// with the one recorded for the seed, recording d if none exists yet.
// sweep-solo and sweep-gang expand the same jobs, so whichever runs
// second in a checkout with a seed must reproduce the first one's.
func matchSweepDigest(root string, seed uint64, d string) error {
	path := filepath.Join(root, "digests", fmt.Sprintf("sweep-%d", seed))
	prev, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(d), 0o644)
	}
	if err != nil {
		return err
	}
	return sameDigest("sweep-solo vs sweep-gang", string(prev), d)
}
