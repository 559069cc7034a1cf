package campaign

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestExecutorContract pins what every job path relies on: one outcome
// per batch member in batch order, records byte-equal to NewRecord over
// sim.Run whether the batch ran solo or ganged, batch-wide failure with
// one shared error, and live samples published under the job's key.
func TestExecutorContract(t *testing.T) {
	w, ok := workload.ByName("2W1")
	if !ok {
		t.Fatal("unknown workload 2W1")
	}
	job := func(p sim.PolicySpec, seed, interval uint64) Job {
		return Job{Workload: w, Policy: p, Seed: seed, Cycles: 1000, Warmup: 200, Interval: interval}
	}
	gone := &TraceRef{Name: "trace:gone", Path: filepath.Join(t.TempDir(), "gone"), Digest: strings.Repeat("ab", 32)}
	traceGone := func(p sim.PolicySpec) Job { return Job{Trace: gone, Policy: p, Seed: 1, Cycles: 1000} }
	errLockstep := errors.New("lockstep broke")

	cases := []struct {
		name       string
		batch      []Job
		gangRunner func([]sim.Options) ([]*sim.Result, error)
		// wantErr, when set, must be every member's error.
		wantErr string
	}{
		{name: "solo", batch: []Job{job(sim.SpecICOUNT, 1, 0)}},
		{name: "gang of 3", batch: []Job{
			job(sim.SpecICOUNT, 1, 0), job(sim.SpecMFLUSH, 1, 0), job(sim.SpecFlushNS, 2, 0),
		}},
		{name: "missing trace", batch: []Job{
			traceGone(sim.SpecICOUNT), traceGone(sim.SpecMFLUSH), traceGone(sim.SpecFlushNS),
		}, wantErr: "loading trace"},
		{name: "gang runner error", batch: []Job{
			job(sim.SpecICOUNT, 1, 0), job(sim.SpecMFLUSH, 1, 0),
		}, gangRunner: func([]sim.Options) ([]*sim.Result, error) { return nil, errLockstep },
			wantErr: errLockstep.Error()},
		{name: "sampled", batch: []Job{job(sim.SpecMFLUSH, 3, 250)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			samples := make(map[string][]sim.SamplePoint)
			exec := Executor{
				GangRunner: tc.gangRunner,
				OnSample: func(key string, p sim.SamplePoint) {
					mu.Lock()
					samples[key] = append(samples[key], p)
					mu.Unlock()
				},
			}
			outs := exec.Execute(tc.batch)
			if len(outs) != len(tc.batch) {
				t.Fatalf("%d outcomes for a batch of %d", len(outs), len(tc.batch))
			}
			if tc.wantErr != "" {
				for k, o := range outs {
					if o.Err == nil || !strings.Contains(o.Err.Error(), tc.wantErr) {
						t.Fatalf("member %d: err = %v, want %q", k, o.Err, tc.wantErr)
					}
					if o.Err != outs[0].Err {
						t.Errorf("member %d failed with %v, member 0 with %v; want one shared error", k, o.Err, outs[0].Err)
					}
				}
				return
			}
			for k, o := range outs {
				j := tc.batch[k]
				if o.Err != nil {
					t.Fatalf("member %d: %v", k, o.Err)
				}
				opt, err := j.SimOptions()
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run(opt)
				if err != nil {
					t.Fatal(err)
				}
				got, _ := json.Marshal(o.Record)
				want, _ := json.Marshal(NewRecord(j, res))
				if string(got) != string(want) {
					t.Errorf("member %d record differs from NewRecord over sim.Run\n got: %s\nwant: %s", k, got, want)
				}
				pts := samples[j.Key()]
				if len(pts) != len(res.Samples) {
					t.Errorf("member %d: OnSample saw %d points under its key, record holds %d",
						k, len(pts), len(res.Samples))
				}
			}
			if tc.name == "sampled" && len(samples) == 0 {
				t.Error("sampled job published no live points")
			}
		})
	}
}
