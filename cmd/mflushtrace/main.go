// Command mflushtrace synthesises scenario trace files for the
// simulator's trace-replay path: deterministic instruction streams with
// optional per-instruction miss-latency overrides and phase markers,
// ready to drive a campaign's trace: workload axis (see CAMPAIGNS.md).
// The same flags and seed always produce a byte-identical file.
//
// Usage:
//
//	mflushtrace -mode ramp -bench mcf -n 500000 -o ramp.trace
//	mflushtrace -mode burst -bench art -lat-hi 4000 -alpha 1.3 -o burst.trace
//	mflushtrace -mode phase -bench gzip,art -segments 6 -o phases.trace
//	mflushtrace -mode mix -bench mcf,gzip -o pair.trace
//	mflushtrace -list
//
// Output is the binary MFSCEN1 scenario format unless -format selects
// jsonl or, in bench mode, the legacy single-thread mftrace (MFTRACE1).
// mflushsim -traces replays all three.
package main

import (
	"os"

	"repro/internal/tracecli"
)

func main() {
	os.Exit(tracecli.Main("mflushtrace", os.Args[1:], os.Stdout, os.Stderr))
}
