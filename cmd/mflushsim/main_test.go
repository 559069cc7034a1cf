package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/tracecli"
)

// TestLoadTracesReplaysEveryEncoding writes one synthesised stream in
// each encoding mflushtrace can emit and replays each through -traces'
// loader: all three must load the same threads and simulate to equal
// Result fingerprints. MFSCEN1 is mflushtrace's default output.
func TestLoadTracesReplaysEveryEncoding(t *testing.T) {
	scen, err := tracecli.Synthesize(tracecli.Config{Benches: []string{"mcf"}, N: 5000})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var want string
	for _, format := range []string{"binary", "jsonl", "mftrace"} {
		path := filepath.Join(dir, "mcf."+format)
		if err := tracecli.WriteFile(path, scen, format); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		// Listing the file twice replays it on two threads.
		threads, err := loadTraces(path + ", " + path)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if len(threads) != 2 || !reflect.DeepEqual(threads[0], scen.Threads[0]) {
			t.Fatalf("%s: loaded %d threads, want the synthesised stream twice", format, len(threads))
		}
		res, err := sim.Run(sim.Options{ThreadTraces: threads, Policy: sim.SpecMFLUSH, Warmup: 500, Cycles: 2000, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		got := simtest.Fingerprint(res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("%s replay diverged from binary\n got: %s\nwant: %s", format, got, want)
		}
	}
}
