package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// This file is the audited home of simulator-core concurrency: the gang
// chunk loop fans members across worker goroutines behind deterministic
// barriers, and the determinism analyzer forbids `go` statements in
// every other core file.
//
//mflush:gang-barrier-file

// GangSession runs N member simulations — variants of one study, such as
// a policy sweep over a shared (workload, seed) — in lockstep: every
// member advances through the same cycle window together, one chunk at a
// time. Each member is an ordinary Session; the gang adds only what a
// group of them can share. Members that would synthesise the same
// instruction stream read one memoised copy through private cursors
// (gangstream.go), and the chunk loop fans members out across
// goroutines behind deterministic barriers, so a gang's aggregate
// simulated-cycles-per-second multiplies with both sharing and
// available cores. Every member's observable output is bit-identical to
// a solo Session over the same Options — the invariant internal/simtest
// (DiffGang) exists to enforce.
//
// Members never share mutable state; the only cross-member structures
// are the memoised immutable streams, which member goroutines read
// lock-free.
//
// Lifecycle mirrors Session, widened: OpenGang -> (Step | StepContext |
// Snapshot | Observe | ResetMeasurement | FinishMember)* -> Finish.
// Drive a gang from one goroutine; the parallelism inside Step is the
// session's own, invisible to callers, and results are independent of
// both SetParallelism and GOMAXPROCS (test-enforced).
type GangSession struct {
	members []*Session

	// cursors[m] lists member m's shared-stream cursors, released when
	// the member finishes so it stops pinning the streams' trim marks.
	cursors [][]*streamCursor
	// streams lists every shared stream in creation order, for the
	// barrier-time trims.
	streams []*sharedStream

	cycle    uint64
	open     int
	parallel int
}

// gangStride is the internal lockstep chunk: members run this many
// cycles between barriers. Barriers are where cancellation is observed
// and consumed stream chunks are trimmed, so the stride bounds both
// cancellation latency and the shared streams' retained window. Results
// never depend on it (chunking is invariant, test-enforced).
const gangStride = 2048

// OpenGang builds one Session per member and returns the gang positioned
// at cycle zero. Each member's Options are honoured exactly as Open
// does; members may differ in any field, though sharing (and therefore
// speedup) is greatest for members that differ only in policy or tweak.
// A gang of one shares nothing and builds exactly what Open builds. The
// gang's internal parallelism defaults to min(GOMAXPROCS, width);
// SetParallelism overrides it.
func OpenGang(opts []Options) (*GangSession, error) {
	if len(opts) == 0 {
		return nil, fmt.Errorf("sim: gang needs at least one member")
	}
	var shared *gangShared
	if len(opts) > 1 {
		shared = newGangShared()
	}
	g := &GangSession{
		members: make([]*Session, len(opts)),
		cursors: make([][]*streamCursor, len(opts)),
		open:    len(opts),
	}
	for m, opt := range opts {
		chip, cursors, err := buildChip(opt, shared)
		if err != nil {
			return nil, memberErr(len(opts), m, err)
		}
		g.members[m] = newSession(opt, chip)
		g.cursors[m] = cursors
	}
	if shared != nil {
		g.streams = shared.order
	}
	g.SetParallelism(runtime.GOMAXPROCS(0))
	return g, nil
}

// member returns member m's session, or an error naming the bad index.
func (g *GangSession) member(m int) (*Session, error) {
	if m < 0 || m >= len(g.members) {
		return nil, fmt.Errorf("sim: gang has no member %d", m)
	}
	return g.members[m], nil
}

// Width returns the gang's member count (finished members included).
func (g *GangSession) Width() int { return len(g.members) }

// Open returns how many members have not yet been finished.
func (g *GangSession) Open() int { return g.open }

// Cycle returns the lockstep cycle every open member has reached
// (warm-up included).
func (g *GangSession) Cycle() uint64 { return g.cycle }

// MeasuredCycles returns member m's current measurement-window length.
func (g *GangSession) MeasuredCycles(m int) uint64 {
	return g.members[m].MeasuredCycles()
}

// Parallelism returns the goroutine budget Step spreads members over.
func (g *GangSession) Parallelism() int { return g.parallel }

// SetParallelism bounds the goroutines Step uses (clamped to [1, width]).
// Results are independent of the setting — members are independent
// machines and shared streams are immutable — so this is purely a
// throughput knob. Call it between Steps, not during one.
func (g *GangSession) SetParallelism(n int) {
	g.parallel = max(1, min(n, len(g.members)))
}

// Step advances every open member by n cycles in lockstep, firing each
// member's due probes after each of its cycles. Probe functions run on
// the goroutine stepping their member: probes of different members may
// fire concurrently with each other (never with probes of their own
// member), so a probe must touch only its own member's state — the
// Sample it receives and data private to that member.
func (g *GangSession) Step(n uint64) {
	// Background contexts never cancel, so the error is impossible.
	_, _ = g.StepContext(context.Background(), n)
}

// StepContext is Step with cooperative cancellation: it checks ctx at
// every internal chunk barrier and returns the cycles actually stepped
// together with ctx's error when cancelled early. All open members
// always stop at the same lockstep cycle, so a cancelled gang is still
// consistent — stepping it again (or finishing it) behaves exactly as
// if the original Step had been issued in smaller chunks.
func (g *GangSession) StepContext(ctx context.Context, n uint64) (uint64, error) {
	if g.open == 0 {
		panic("sim: Step on a finished gang session")
	}
	var done uint64
	for done < n {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		c := min(n-done, gangStride)
		g.runChunk(c)
		done += c
	}
	return done, nil
}

// runChunk advances every open member by c cycles, striding members
// across the parallelism budget, then waits for all of them (the
// deterministic barrier) and trims the shared streams.
func (g *GangSession) runChunk(c uint64) {
	if p := min(g.parallel, g.open); p > 1 {
		var wg sync.WaitGroup
		for w := 0; w < p; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := w; k < len(g.members); k += p {
					if s := g.members[k]; !s.finished {
						s.Step(c)
					}
				}
			}(w)
		}
		wg.Wait()
	} else {
		for _, s := range g.members {
			if !s.finished {
				s.Step(c)
			}
		}
	}
	g.cycle += c
	for _, s := range g.streams {
		s.trim()
	}
}

// ResetMeasurement restarts every open member's measurement window at
// the current lockstep cycle — the gang-wide warm-up boundary, exactly
// Session.ResetMeasurement per member. Finished members are left
// untouched.
func (g *GangSession) ResetMeasurement() {
	for _, s := range g.members {
		if !s.finished {
			s.ResetMeasurement()
		}
	}
}

// Snapshot refreshes and returns member m's interval digest, with
// Session.Snapshot's buffer-reuse contract.
func (g *GangSession) Snapshot(m int) *Sample {
	return g.members[m].Snapshot()
}

// Observe registers a probe for member m; see Probe for the firing
// invariants and Step for the gang's concurrency contract. Probes may
// be added to any unfinished member at any point before it finishes.
func (g *GangSession) Observe(m int, p Probe) error {
	s, err := g.member(m)
	if err != nil {
		return err
	}
	if err := s.Observe(p); err != nil {
		return memberErr(len(g.members), m, err)
	}
	return nil
}

// FinishMember finishes member m's Session and removes it from the
// lockstep: subsequent Steps advance only the remaining members, and
// the member's shared-stream cursors are released so they stop pinning
// stream memory. The rest of the gang is unaffected — bit-identically
// so.
func (g *GangSession) FinishMember(m int) (*Result, error) {
	s, err := g.member(m)
	if err != nil {
		return nil, err
	}
	wasOpen := !s.finished
	res, err := s.Finish()
	if wasOpen && s.finished {
		g.open--
		for _, cur := range g.cursors[m] {
			cur.stream.release(cur)
		}
		g.cursors[m] = nil
	}
	if err != nil {
		return nil, memberErr(len(g.members), m, err)
	}
	return res, nil
}

// Finish finishes every still-open member (in member order) and returns
// the full width of results, including those collected earlier by
// FinishMember. The first member error is returned after every member
// has been finished, so a partial failure still closes the gang.
func (g *GangSession) Finish() ([]*Result, error) {
	var firstErr error
	results := make([]*Result, len(g.members))
	for m, s := range g.members {
		if !s.finished {
			if _, err := g.FinishMember(m); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		results[m] = s.result
	}
	return results, firstErr
}

// RunGang executes one simulation per member to completion in lockstep:
// OpenGang, Step(Warmup), ResetMeasurement, Step(Cycles), Finish. Each
// member's result is bit-identical to running its Options alone
// (test-enforced), and Run is RunGang over one member. All members must
// share one cycle budget and warm-up length (gang batching groups jobs
// that way). A member with a positive Interval gets a Recorder probe
// registered after warm-up, so its Result.Samples cover exactly the
// measured window, with OnSample receiving each point live.
func RunGang(opts []Options) ([]*Result, error) {
	if len(opts) == 0 {
		return nil, fmt.Errorf("sim: empty gang")
	}
	for m, o := range opts {
		if o.Cycles == 0 {
			return nil, memberErr(len(opts), m, fmt.Errorf("sim: zero cycle budget"))
		}
		if o.Cycles != opts[0].Cycles || o.Warmup != opts[0].Warmup {
			return nil, fmt.Errorf("sim: gang member %d budget (%d cycles, %d warmup) differs from member 0 (%d, %d); gangs run one lockstep window",
				m, o.Cycles, o.Warmup, opts[0].Cycles, opts[0].Warmup)
		}
	}
	g, err := OpenGang(opts)
	if err != nil {
		return nil, err
	}
	if w := opts[0].Warmup; w > 0 {
		g.Step(w)
		g.ResetMeasurement()
	}
	recs := make([]*Recorder, len(opts))
	for m, o := range opts {
		if o.Interval > 0 {
			recs[m] = &Recorder{OnPoint: o.OnSample}
			if err := g.Observe(m, recs[m].Probe(o.Interval)); err != nil {
				return nil, err
			}
		}
	}
	g.Step(opts[0].Cycles)
	results, err := g.Finish()
	if err != nil {
		return nil, err
	}
	for m, rec := range recs {
		if rec != nil {
			results[m].Samples = rec.Points
		}
	}
	return results, nil
}

// memberErr names member m in err for gangs wider than one; a gang of
// one is a solo run (Run) and reports its errors as such.
func memberErr(width, m int, err error) error {
	if width == 1 {
		return err
	}
	return fmt.Errorf("sim: gang member %d: %w", m, err)
}
