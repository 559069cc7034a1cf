package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/campaign"
)

// ledger counts the operations a run attempted and the ones that failed:
// failed jobs, HTTP responses outside 2xx and correctness mismatches all
// count. The first few failures are kept for the report.
type ledger struct {
	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
}

// op books one operation; a non-nil err marks it failed.
func (l *ledger) op(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.problems) < 8 {
			l.problems = append(l.problems, err.Error())
		}
	}
}

// ops books n operations that all succeeded.
func (l *ledger) ops(n int) {
	l.mu.Lock()
	l.attempted += n
	l.mu.Unlock()
}

// digest hashes records in job order. Records carry the full simulation
// summary, so two runs of one spec have equal digests exactly when every
// simulated statistic repeats.
func digest(recs []campaign.Record) string {
	data, err := json.Marshal(recs)
	if err != nil {
		// Records are plain data; failing to encode them is a bug.
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// sameDigest reports a mismatch between two digests of what must be the
// same records.
func sameDigest(what, want, got string) error {
	if want != got {
		return fmt.Errorf("%s: record digest %.12s differs from %.12s", what, got, want)
	}
	return nil
}

// wellFormed checks one record's internal consistency: a positive,
// finite IPC over a non-empty window whose committed instructions agree
// with IPC × cycles.
func wellFormed(rec campaign.Record) error {
	s := rec.Summary
	if rec.Key == "" {
		return fmt.Errorf("record without a key")
	}
	if s.Cycles == 0 || math.IsNaN(s.IPC) || math.IsInf(s.IPC, 0) || s.IPC <= 0 {
		return fmt.Errorf("record %s: ipc %v over %d cycles", rec.Key, s.IPC, s.Cycles)
	}
	var committed uint64
	for _, n := range s.Committed {
		committed += n
	}
	if d := math.Abs(float64(committed) - s.IPC*float64(s.Cycles)); d > 0.5 {
		return fmt.Errorf("record %s: %d committed but ipc %v × %d cycles", rec.Key, committed, s.IPC, s.Cycles)
	}
	return nil
}
