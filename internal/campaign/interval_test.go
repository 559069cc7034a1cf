package campaign

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func intervalTestJob(t *testing.T, interval uint64) Job {
	t.Helper()
	w, ok := workload.ByName("2W1")
	if !ok {
		t.Fatal("unknown workload 2W1")
	}
	return Job{Workload: w, Policy: sim.SpecICOUNT, Seed: 1, Cycles: 1000, Warmup: 100, Interval: interval}
}

// TestJobKeyIntervalStability pins two key properties: an interval-less
// job keeps the exact key the pre-interval code produced (so existing
// stores stay addressable), and a sampling interval makes the job a
// distinct content point.
func TestJobKeyIntervalStability(t *testing.T) {
	// Computed by Job.Key before the Interval field existed.
	const frozen = "064b087d1c5326475010a4f286cabea2"
	plain := intervalTestJob(t, 0)
	if got := plain.Key(); got != frozen {
		t.Errorf("interval-less key changed: %s, want %s", got, frozen)
	}
	sampled := intervalTestJob(t, 250)
	if sampled.Key() == plain.Key() {
		t.Error("sampling interval does not change the job key")
	}
	if other := intervalTestJob(t, 500); other.Key() == sampled.Key() {
		t.Error("different intervals share a key")
	}
}

// TestWireJobCarriesInterval proves the interval request survives the
// cluster wire form with its key intact, and that dropping it is
// detectable by the worker-side key check.
func TestWireJobCarriesInterval(t *testing.T) {
	j := intervalTestJob(t, 250)
	wire := j.Wire()
	if wire.Interval != 250 {
		t.Fatalf("wire form lost the interval: %+v", wire)
	}
	back, err := wire.Job()
	if err != nil {
		t.Fatal(err)
	}
	if back.Interval != 250 {
		t.Fatalf("round trip lost the interval: %+v", back)
	}
	if back.Key() != wire.Key {
		t.Errorf("round-tripped key %s != wire key %s", back.Key(), wire.Key)
	}
	wire.Interval = 0 // a worker build that dropped the field
	stripped, err := wire.Job()
	if err != nil {
		t.Fatal(err)
	}
	if stripped.Key() == wire.Key {
		t.Error("dropping the interval is invisible to the key check")
	}
}

// TestSpecIntervalExpansion checks that a spec-level interval reaches
// every expanded job and that jobs' Options request the sampling.
func TestSpecIntervalExpansion(t *testing.T) {
	spec := Spec{
		Workloads: []string{"2W1", "2W3"},
		Policies:  []string{"ICOUNT"},
		Cycles:    1000, Interval: 200,
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("expanded to %d jobs, want 2", len(jobs))
	}
	for _, j := range jobs {
		if j.Interval != 200 {
			t.Errorf("%s: interval %d, want 200", j, j.Interval)
		}
		if o, _ := j.SimOptions(); o.Interval != 200 {
			t.Errorf("%s: options dropped the interval", j)
		}
	}
}

// TestReadSpecInterval checks the JSON spelling of the interval knob.
func TestReadSpecInterval(t *testing.T) {
	spec, err := ReadSpec(strings.NewReader(
		`{"workloads":["2W1"],"policies":["ICOUNT"],"cycles":1000,"interval":125}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Interval != 125 {
		t.Fatalf("interval = %d, want 125", spec.Interval)
	}
}

// TestRecordCarriesIntervalSamples runs a sampled job for real and
// checks the record's summary holds the series — the form in which
// samples persist in stores and travel back from cluster workers.
func TestRecordCarriesIntervalSamples(t *testing.T) {
	j := intervalTestJob(t, 250)
	o, err := j.SimOptions()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecord(j, res)
	if got := len(rec.Summary.IntervalSamples); got != 4 {
		t.Fatalf("record carries %d interval samples, want 4", got)
	}
	for i, p := range rec.Summary.IntervalSamples {
		if want := uint64(i+1) * 250; p.MeasuredCycles != want {
			t.Errorf("sample %d at measured cycle %d, want %d", i, p.MeasuredCycles, want)
		}
	}
}
