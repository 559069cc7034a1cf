package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// writeScenarioFile writes a minimal valid scenario and returns its
// path and content digest.
func writeScenarioFile(t *testing.T, dir, name, salt string) (string, string) {
	t.Helper()
	s := &trace.Scenario{Threads: [][]isa.Inst{{
		{PC: 0x1000, Class: isa.ClassLoad, Dest: 3, Src1: isa.InvalidReg, Src2: isa.InvalidReg, Addr: 0x100, MissLatency: 500},
		{PC: 0x1004, Class: isa.ClassInt, Dest: 4, Src1: 3, Src2: isa.InvalidReg},
		{PC: 0x1008, Class: isa.ClassBranch, Dest: isa.InvalidReg, Src1: 4, Src2: isa.InvalidReg, Taken: true, Target: 0x1000},
	}}, Phases: []trace.PhaseMark{{Thread: 0, Index: 0, Label: "p-" + salt}}}
	var buf bytes.Buffer
	if err := trace.WriteScenarioJSONL(&buf, s); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	digest, err := trace.SumFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, digest
}

func traceJob(ref *TraceRef) Job {
	return Job{Trace: ref, Policy: mustParse("ICOUNT"), Seed: 1, Cycles: 1000, Warmup: 100}
}

func mustParse(s string) sim.PolicySpec {
	p, err := sim.ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return p
}

// TestTraceJobKeyFrozen pins the trace-job key material the way the
// Interval test froze the synthetic material in PR 5: this exact hex
// must never change, or every trace result in existing stores becomes
// unaddressable. It also re-pins a synthetic key to prove the trace
// axis did not disturb pre-trace material.
func TestTraceJobKeyFrozen(t *testing.T) {
	ref := &TraceRef{
		Name:   "trace:whatever.trace",
		Path:   "whatever.trace",
		Digest: strings.Repeat("a", 64),
	}
	if got, want := traceJob(ref).Key(), "637b85f41f7870055dbc6ddb79e7b4db"; got != want {
		t.Errorf("trace job key = %s, want frozen %s", got, want)
	}
	w, _ := workload.ByName("2W1")
	syn := Job{Workload: w, Policy: mustParse("ICOUNT"), Seed: 1, Cycles: 1000, Warmup: 100}
	if got, want := syn.Key(), "064b087d1c5326475010a4f286cabea2"; got != want {
		t.Errorf("synthetic job key = %s, want frozen %s", got, want)
	}
}

// TestTraceJobKeysDistinct: the digest, not the path or name, is the
// identity — distinct content gets distinct keys, renamed files keep
// theirs.
func TestTraceJobKeysDistinct(t *testing.T) {
	a := traceJob(&TraceRef{Name: "trace:a", Path: "a", Digest: strings.Repeat("a", 64)})
	b := traceJob(&TraceRef{Name: "trace:a", Path: "a", Digest: strings.Repeat("b", 64)})
	if a.Key() == b.Key() {
		t.Fatal("different trace digests share a job key")
	}
	renamed := traceJob(&TraceRef{Name: "trace:elsewhere", Path: "elsewhere", Digest: strings.Repeat("a", 64)})
	if a.Key() != renamed.Key() {
		t.Fatal("renaming a trace file changed its job key")
	}
}

func TestTraceWireRoundTrip(t *testing.T) {
	ref := &TraceRef{Name: "trace:x.trace", Path: "x.trace", Digest: strings.Repeat("c", 64)}
	j := traceJob(ref)
	w := j.Wire()
	if w.Workload != "" {
		t.Errorf("trace wire job carries workload %q", w.Workload)
	}
	back, err := w.Job()
	if err != nil {
		t.Fatalf("wire round trip: %v", err)
	}
	if back.Key() != w.Key || back.Key() != j.Key() {
		t.Fatalf("keys diverged: job %s wire %s back %s", j.Key(), w.Key, back.Key())
	}
	if !reflect.DeepEqual(back.Trace, ref) {
		t.Fatalf("trace ref did not round trip: %+v", back.Trace)
	}

	// A worker build that dropped the trace field must fail decode, not
	// silently simulate something else.
	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "trace")
	stripped, _ := json.Marshal(m)
	var w2 WireJob
	if err := json.Unmarshal(stripped, &w2); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Job(); err == nil {
		t.Fatal("wire job with dropped trace field decoded")
	}

	// Both a workload and a trace is a protocol violation.
	w3 := w
	w3.Workload = "2W1"
	if _, err := w3.Job(); err == nil {
		t.Fatal("wire job naming both workload and trace decoded")
	}
}

// TestTraceGangKeySeparation: trace jobs must never batch with
// synthetic jobs (their stream memoisation would mis-share), and only
// batch with replays of byte-identical content.
func TestTraceGangKeySeparation(t *testing.T) {
	w, _ := workload.ByName("2W1")
	syn := Job{Workload: w, Policy: mustParse("ICOUNT"), Seed: 1, Cycles: 1000, Warmup: 100}
	tr := traceJob(&TraceRef{Name: "trace:a", Path: "a", Digest: strings.Repeat("a", 64)})
	tr2 := traceJob(&TraceRef{Name: "trace:b", Path: "b", Digest: strings.Repeat("b", 64)})
	same := traceJob(&TraceRef{Name: "trace:a2", Path: "a2", Digest: strings.Repeat("a", 64)})
	same.Policy = mustParse("MFLUSH")

	if syn.GangKey() == tr.GangKey() {
		t.Fatal("trace job shares a gang key with a synthetic job")
	}
	if tr.GangKey() == tr2.GangKey() {
		t.Fatal("distinct trace contents share a gang key")
	}
	if tr.GangKey() != same.GangKey() {
		t.Fatal("identical trace contents (different policies) do not share a gang key")
	}
	groups := GangGroups([]Job{syn, tr, same, tr2}, 4)
	for _, g := range groups {
		hasSyn, hasTrace := false, false
		for _, i := range g {
			if []Job{syn, tr, same, tr2}[i].Trace == nil {
				hasSyn = true
			} else {
				hasTrace = true
			}
		}
		if hasSyn && hasTrace {
			t.Fatalf("group %v mixes trace and synthetic jobs", g)
		}
	}
}

func TestSpecTraceAxis(t *testing.T) {
	dir := t.TempDir()
	pathA, digestA := writeScenarioFile(t, dir, "a.trace", "A")
	pathB, digestB := writeScenarioFile(t, dir, "b.trace", "B")

	spec := Spec{
		Workloads: []string{"2W1", "trace:" + pathA, "trace:" + pathB},
		Policies:  []string{"ICOUNT"},
		Cycles:    1000,
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("got %d jobs, want 3", len(jobs))
	}
	if jobs[0].Trace != nil || jobs[1].Trace == nil || jobs[2].Trace == nil {
		t.Fatalf("trace refs landed on the wrong jobs: %+v", jobs)
	}
	if jobs[1].Trace.Digest != digestA || jobs[2].Trace.Digest != digestB {
		t.Fatalf("digests not resolved from file content")
	}
	if jobs[1].Key() == jobs[2].Key() {
		t.Fatal("two different traces share a job key")
	}

	// Same bytes under two names is one workload: reject like any
	// duplicate axis entry.
	dupPath := filepath.Join(dir, "a-copy.trace")
	raw, _ := os.ReadFile(pathA)
	if err := os.WriteFile(dupPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	dup := Spec{
		Workloads: []string{"trace:" + pathA, "trace:" + dupPath},
		Policies:  []string{"ICOUNT"},
		Cycles:    1000,
	}
	if _, err := dup.Jobs(); err == nil {
		t.Fatal("duplicate trace content accepted")
	}

	missing := Spec{Workloads: []string{"trace:" + filepath.Join(dir, "nope")}, Policies: []string{"ICOUNT"}, Cycles: 1000}
	if _, err := missing.Jobs(); err == nil {
		t.Fatal("missing trace file accepted")
	}
}

func TestTraceSimOptions(t *testing.T) {
	dir := t.TempDir()
	path, digest := writeScenarioFile(t, dir, "s.trace", "S")
	ref := &TraceRef{Name: "trace:" + path, Path: path, Digest: digest}
	j := traceJob(ref)

	o, err := j.SimOptions()
	if err != nil {
		t.Fatal(err)
	}
	if o.Name != ref.Name {
		t.Errorf("options name %q, want %q", o.Name, ref.Name)
	}
	if len(o.ThreadTraces) != 1 || len(o.ThreadTraces[0]) != 3 {
		t.Fatalf("thread traces not loaded: %+v", o.ThreadTraces)
	}
	if o.ThreadTraces[0][0].MissLatency != 500 {
		t.Errorf("miss-latency override lost in load: %+v", o.ThreadTraces[0][0])
	}

	// A file that drifted from the digest the key was computed over
	// must fail the load, not simulate the wrong content. (The ref's
	// digest must be one this process has not verified yet: loads are
	// memoised by digest, and a digest already verified in memory is
	// served from the memo regardless of what the path holds now.)
	_, freshDigest := writeScenarioFile(t, dir, "d.trace", "DRIFT")
	if freshDigest == digest {
		t.Fatal("test setup: drifted file has the same digest")
	}
	bad := traceJob(&TraceRef{Name: "trace:" + path, Path: path, Digest: freshDigest})
	if _, err := bad.SimOptions(); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("drifted trace load error = %v, want digest mismatch", err)
	}
}
