package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sim"
)

func record(key string, ipc float64, cycles uint64, committed ...uint64) campaign.Record {
	return campaign.Record{Key: key, Workload: "2W1", Policy: "MFLUSH",
		Summary: sim.Summary{IPC: ipc, Cycles: cycles, Committed: committed}}
}

func TestDigestComparison(t *testing.T) {
	a := []campaign.Record{record("k1", 1.5, 100, 70, 80), record("k2", 0.5, 100, 50)}
	b := []campaign.Record{record("k1", 1.5, 100, 70, 80), record("k2", 0.5, 100, 50)}
	if err := sameDigest("repeat", digest(a), digest(b)); err != nil {
		t.Errorf("equal records: %v", err)
	}
	b[1].Summary.Flushes = 1
	if err := sameDigest("repeat", digest(a), digest(b)); err == nil {
		t.Error("a changed simulated count kept the digest")
	}
	// Order is part of the digest: records are compared in job order.
	if digest(a) == digest([]campaign.Record{a[1], a[0]}) {
		t.Error("reordered records kept the digest")
	}
}

func TestSameBytes(t *testing.T) {
	if err := sameBytes("agg", []byte(`[1]`), []byte(`[1]`)); err != nil {
		t.Error(err)
	}
	if err := sameBytes("agg", []byte(`[1]`), []byte(`[2]`)); err == nil || !strings.Contains(err.Error(), "agg") {
		t.Errorf("mismatch error = %v", err)
	}
}

func TestWellFormed(t *testing.T) {
	if err := wellFormed(record("k", 1.5, 100, 70, 80)); err != nil {
		t.Errorf("consistent record: %v", err)
	}
	for name, rec := range map[string]campaign.Record{
		"no key":         record("", 1.5, 100, 70, 80),
		"zero ipc":       record("k", 0, 100, 0),
		"nan ipc":        record("k", math.NaN(), 100, 70),
		"empty window":   record("k", 1.5, 0, 70, 80),
		"commit too low": record("k", 1.5, 100, 70, 79),
	} {
		if err := wellFormed(rec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLedger(t *testing.T) {
	var l ledger
	l.ops(3)
	l.op(nil)
	l.op(errString("boom"))
	if l.attempted != 5 || l.failed != 1 || len(l.problems) != 1 {
		t.Errorf("ledger: %d attempted, %d failed, problems %q", l.attempted, l.failed, l.problems)
	}
}

type errString string

func (e errString) Error() string { return string(e) }
