package sim

import (
	"fmt"

	"repro/internal/cmp"
	"repro/internal/core"
)

// Session is an open, incrementally steppable simulation — the stateful
// form of Run. Where Run is a run-to-completion black box, a Session
// exposes the temporal behaviour the paper's mechanism is about: callers
// advance the machine in arbitrary chunks with Step, read cheap interval
// digests with Snapshot, register periodic Probes with Observe, and
// close the run with Finish to obtain the same Result a one-shot Run
// would have produced.
//
// Lifecycle: Open -> (Step | Snapshot | Observe | ResetMeasurement)* ->
// Finish. A session is not safe for concurrent use; drive it from one
// goroutine. Run itself is Open -> Step(Warmup) -> ResetMeasurement ->
// Step(Cycles) -> Finish, so stepping a session in any chunking
// reproduces Run bit-for-bit (test-enforced).
type Session struct {
	opt  Options
	chip *cmp.Chip
	// measureStart is the absolute cycle of the last ResetMeasurement
	// (zero until one happens): the start of the measurement window.
	// resetGen counts the resets, so recorders can rebase their deltas.
	measureStart uint64
	resetGen     uint64
	finished     bool
	// result is what a successful Finish returned, kept so a gang's
	// Finish can report members finished earlier.
	result *Result

	probes []probeState
	// sample is the reusable digest refreshed by Snapshot and probe
	// firings; totals is its scratch. Reusing both keeps the observing
	// hot path allocation-free.
	sample Sample
	totals cmp.Totals
	// mflush caches the per-core MFLUSH policies (nil entries, or a nil
	// slice, for other policies) so refreshes skip the type assertion.
	mflush []*core.MFLUSH
}

// Open builds the machine for opt and returns a session positioned at
// cycle zero, before any warm-up. Unlike Run, Open does not require a
// cycle budget: opt.Cycles and opt.Warmup only matter to Run's wrapper
// flow (and to naming in the Result); the caller decides how far to
// step. Everything else in opt (workload, policy, seed, tweak, traces)
// is honoured exactly as Run does.
func Open(opt Options) (*Session, error) {
	chip, _, err := buildChip(opt, nil)
	if err != nil {
		return nil, err
	}
	return newSession(opt, chip), nil
}

// newSession wraps a freshly built chip.
func newSession(opt Options, chip *cmp.Chip) *Session {
	return &Session{opt: opt, chip: chip, mflush: mflushPolicies(chip)}
}

// mflushPolicies returns the per-core MFLUSH policies, or nil when any
// core runs a different policy — caching the type assertions so sample
// refreshes never repeat them.
func mflushPolicies(chip *cmp.Chip) []*core.MFLUSH {
	var out []*core.MFLUSH
	for _, c := range chip.Cores() {
		mf, ok := c.Policy().(*core.MFLUSH)
		if !ok {
			return nil
		}
		out = append(out, mf)
	}
	return out
}

// Step advances the simulation by n cycles, firing due probes after each
// cycle. With no probes registered it is exactly the chip's cycle loop;
// probes add countdown bookkeeping but no allocation.
//
//mflush:hotpath
func (s *Session) Step(n uint64) {
	if s.finished {
		panic("sim: Step on a finished session")
	}
	if len(s.probes) == 0 {
		s.chip.Run(n)
		return
	}
	for i := uint64(0); i < n; i++ {
		s.chip.Tick()
		s.tickProbes()
	}
}

// Cycle returns the absolute cycle the session has reached (warm-up
// included).
func (s *Session) Cycle() uint64 { return s.chip.Now() }

// MeasuredCycles returns the length of the current measurement window:
// cycles stepped since the last ResetMeasurement (or since Open).
func (s *Session) MeasuredCycles() uint64 { return s.chip.Now() - s.measureStart }

// ResetMeasurement zeroes every accumulated metric — per-core counters,
// energy accounts, per-thread commit counts, the L2 histograms and
// counters — without touching microarchitectural state, and restarts the
// measurement window at the current cycle. This is how warm-up is
// excluded: Run calls it between Step(Warmup) and Step(Cycles).
func (s *Session) ResetMeasurement() {
	for _, c := range s.chip.Cores() {
		c.ResetMeasurement()
	}
	s.chip.L2().ResetStats()
	s.measureStart = s.chip.Now()
	s.resetGen++
}

// Snapshot refreshes and returns the session's interval digest:
// cumulative per-thread committed counts, IPC, flushes, energy, L2
// hit/miss deltas over the measurement window, plus the MFLUSH MCReg
// state when that policy is running. The returned Sample shares the
// session's reused buffers — it is valid until the next Step, Snapshot
// or probe firing; use Sample.Point to retain a copy. Snapshot only
// reads, so interleaving it with Step never changes results.
func (s *Session) Snapshot() *Sample {
	s.refreshSample()
	return &s.sample
}

// refreshSample fills s.sample from the chip, reusing its slices.
//
//mflush:hotpath
func (s *Session) refreshSample() {
	sm := &s.sample
	s.chip.ReadTotals(&s.totals)
	sm.Cycle = s.chip.Now()
	sm.MeasuredCycles = sm.Cycle - s.measureStart
	sm.resetGen = s.resetGen
	sm.Committed = s.chip.AppendCommitted(sm.Committed[:0])
	if sm.MeasuredCycles > 0 {
		sm.IPC = float64(s.totals.Committed) / float64(sm.MeasuredCycles)
	} else {
		sm.IPC = 0
	}
	sm.Flushes = s.totals.Flushes
	sm.FlushedInsts = s.totals.FlushedInsts
	sm.WastedEnergy = s.totals.WastedEnergy
	sm.L2Hits = s.totals.L2Hits
	sm.L2Misses = s.totals.L2Misses
	if len(s.mflush) == 0 {
		sm.MCReg = nil
		return
	}
	if sm.MCReg == nil {
		sm.MCReg = make([][]uint8, len(s.mflush))
	}
	for i, mf := range s.mflush {
		sm.MCReg[i] = mf.MCReg().AppendSnapshot(sm.MCReg[i][:0])
	}
}

// Finish validates the machine's invariants and collects the Result over
// the measurement window (MeasuredCycles is the IPC denominator, so a
// session that stepped Warmup, reset, then stepped Cycles returns
// exactly Run's result). The session is closed afterwards: further
// Step/Observe calls panic or error, and a second Finish errors.
func (s *Session) Finish() (*Result, error) {
	if s.finished {
		return nil, fmt.Errorf("sim: session already finished")
	}
	measured := s.MeasuredCycles()
	if measured == 0 {
		return nil, fmt.Errorf("sim: session finished with an empty measurement window")
	}
	s.finished = true
	res, err := collect(s.chip, s.opt, measured)
	if err != nil {
		return nil, err
	}
	s.result = res
	return res, nil
}
