package campaign

import (
	"context"

	"repro/internal/sim"
)

// Executor is the one path from a job to a record. The scheduler, the
// cache, the daemon's local runner and the fleet's workers and router
// all hand it batches: a batch is one GangGroups group, so a single job
// runs solo and two or more run as one lockstep gang. Whatever the
// path, a record is byte-for-byte what NewRecord over sim.Run would
// produce, because the simulator is deterministic and ganging is
// bit-identical to solo runs.
type Executor struct {
	// Runner executes a batch of one; nil means sim.Run.
	Runner func(sim.Options) (*sim.Result, error)
	// GangRunner executes a batch of two or more in lockstep; nil means
	// sim.RunGang.
	GangRunner func([]sim.Options) ([]*sim.Result, error)
	// OnSample, when non-nil, receives the live interval points of
	// sampled jobs, keyed by Job.Key, on the simulating goroutine.
	OnSample func(key string, p sim.SamplePoint)
}

// Outcome is one batch member's result: its record, or the error that
// stopped it.
type Outcome struct {
	// Record is the job's record; zero when Err is set.
	Record Record
	// Err is why the job produced no record.
	Err error
}

// Execute runs the batch and returns one outcome per job, in batch
// order. Members of a batch share one GangKey, hence one trace file and
// one lockstep: a trace that fails to load, or a runner that fails,
// fails every member with the same error.
func (e Executor) Execute(batch []Job) []Outcome {
	out := make([]Outcome, len(batch))
	fail := func(err error) []Outcome {
		for k := range out {
			out[k].Err = err
		}
		return out
	}
	opts := make([]sim.Options, len(batch))
	for k, j := range batch {
		o, err := j.SimOptions()
		if err != nil {
			return fail(err)
		}
		if e.OnSample != nil && o.Interval > 0 {
			key := j.Key()
			o.OnSample = func(p sim.SamplePoint) { e.OnSample(key, p) }
		}
		opts[k] = o
	}
	run := e.GangRunner
	if run == nil {
		run = sim.RunGang
	}
	if len(batch) == 1 {
		solo := e.Runner
		if solo == nil {
			solo = sim.Run
		}
		run = func(o []sim.Options) ([]*sim.Result, error) {
			res, err := solo(o[0])
			return []*sim.Result{res}, err
		}
	}
	results, err := run(opts)
	if err != nil {
		return fail(err)
	}
	for k, j := range batch {
		out[k].Record = NewRecord(j, results[k])
	}
	return out
}

// Run executes one job: the job-level runner NewJobCache takes. Local
// simulations are not interruptible, so ctx is unused.
func (e Executor) Run(_ context.Context, j Job) (Record, error) {
	o := e.Execute([]Job{j})[0]
	return o.Record, o.Err
}

// NewRecord builds the store record for a completed job. The Executor
// is its one caller, so a record is byte-for-byte identical no matter
// where the job ran.
func NewRecord(j Job, res *sim.Result) Record {
	return Record{
		Key: j.Key(), Workload: res.Workload, Policy: res.Policy,
		Tweak: j.Tweak.Label(), Seed: j.Seed, Summary: res.Summary(),
	}
}
