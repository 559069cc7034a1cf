package sim

import (
	"sync"
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Gang sharing: a GangSession's members are independent machines, but
// the synthesised instruction streams they consume are immutable and,
// across the policy/tweak variants a gang batches, often identical.
// gangShared memoises them during OpenGang so one synthesis pass
// amortises over every member that would have generated the same bytes.
// Streams are keyed per thread by (workload, profile index, generator
// seed, address base) — the exact inputs that make two generators emit
// bit-identical streams. Everything else, the L2 prewarm included, each
// member builds for itself.
//
// Mutable state is never shared: each member owns its chip, and stream
// consumers are per-member cursors over the memoised (immutable) stream.
type gangShared struct {
	streams map[streamKey]*sharedStream
	// order lists streams in creation order so trimming and tests are
	// deterministic (map iteration is not).
	order []*sharedStream
}

func newGangShared() *gangShared {
	return &gangShared{streams: make(map[streamKey]*sharedStream)}
}

// streamKey identifies one thread's synthesised instruction stream: two
// generators constructed from these exact inputs emit bit-identical
// streams (synth.Generator is fully deterministic), so members matching
// on the key can share one materialised copy.
type streamKey struct {
	workload string
	profile  int
	seed     uint64
	base     uint64
}

// cursorFor returns a fresh cursor over the memoised stream for key,
// creating the stream (and its single underlying generator) on first use.
func (gs *gangShared) cursorFor(workloadName string, profileIdx int,
	prof synth.Profile, seed, base uint64) *streamCursor {
	key := streamKey{workload: workloadName, profile: profileIdx, seed: seed, base: base}
	st := gs.streams[key]
	if st == nil {
		st = newSharedStream(synth.NewGenerator(prof, seed, base))
		gs.streams[key] = st
		gs.order = append(gs.order, st)
	}
	cur := &streamCursor{stream: st}
	st.cursors = append(st.cursors, cur)
	return cur
}

// Stream storage granularity. Chunks are fixed-size so a position maps
// to (chunk, offset) with shifts, and so a chunk's backing array never
// reallocates — entries below the materialised watermark are immutable
// and safe to read without locks.
const (
	streamChunkBits = 10
	streamChunkSize = 1 << streamChunkBits
	streamChunkMask = streamChunkSize - 1
	// streamBatch is how far materialise runs past the requested
	// position per lock acquisition, so concurrent members round-robin
	// the lock a few times per thousand instructions instead of per
	// instruction. Purely a batching knob: stream content is the
	// generator's output regardless.
	streamBatch = 256
)

// streamWindow is the immutable view readers load atomically: the chunk
// list and the absolute stream position of its first entry. Growing the
// stream or trimming consumed chunks installs a fresh window; readers
// holding the old one still see valid (if stale) chunks, which the GC
// reclaims once unreferenced.
type streamWindow struct {
	base   uint64
	chunks [][]isa.Inst
}

// sharedStream memoises one synthesised instruction stream for
// concurrent lock-free reading by gang members at different positions.
//
// Writer protocol (materialise, under mu): fill preallocated chunk
// entries in stream order, publishing a new window *before* advancing
// the n watermark whenever a chunk is added. Reader protocol (cursor
// Next): observe pos < n, then load the window — the sequentially
// consistent atomics order the window publish before the watermark
// advance, so the window covers every materialised position the reader
// can ask for.
//
// Trimming (trim) discards whole chunks below the slowest cursor. It
// must only run while no cursor is mid-read — GangSession calls it at
// its chunk barriers, where member goroutines are quiescent.
type sharedStream struct {
	mu  sync.Mutex
	gen trace.Source
	w   atomic.Pointer[streamWindow]
	n   atomic.Uint64
	// cursors is maintained single-threaded (OpenGang, FinishMember,
	// barrier trims): every live consumer, for the trim low-water mark.
	cursors []*streamCursor
}

func newSharedStream(gen trace.Source) *sharedStream {
	s := &sharedStream{gen: gen}
	s.w.Store(&streamWindow{})
	return s
}

// materialise extends the stream through position i (plus batch slack).
func (s *sharedStream) materialise(i uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.n.Load()
	if i < n {
		return // another member materialised past i first
	}
	w := s.w.Load()
	target := i + streamBatch
	for n < target {
		rel := n - w.base
		if ci := rel >> streamChunkBits; ci == uint64(len(w.chunks)) {
			grown := &streamWindow{
				base:   w.base,
				chunks: append(append([][]isa.Inst(nil), w.chunks...), make([]isa.Inst, streamChunkSize)),
			}
			s.w.Store(grown)
			w = grown
		}
		s.gen.Next(&w.chunks[rel>>streamChunkBits][rel&streamChunkMask])
		n++
	}
	s.n.Store(n)
}

// trim discards whole chunks every cursor has consumed, bounding the
// retained window to [slowest cursor, materialised). Single-threaded:
// see the type comment.
func (s *sharedStream) trim() {
	if len(s.cursors) == 0 {
		return
	}
	low := s.cursors[0].pos
	for _, c := range s.cursors[1:] {
		if c.pos < low {
			low = c.pos
		}
	}
	w := s.w.Load()
	drop := (low - w.base) >> streamChunkBits
	if drop == 0 {
		return
	}
	s.w.Store(&streamWindow{
		base:   w.base + drop<<streamChunkBits,
		chunks: append([][]isa.Inst(nil), w.chunks[drop:]...),
	})
}

// release detaches a finished member's cursor so it no longer pins the
// trim low-water mark. Single-threaded (FinishMember).
func (s *sharedStream) release(cur *streamCursor) {
	for i, c := range s.cursors {
		if c == cur {
			s.cursors = append(s.cursors[:i], s.cursors[i+1:]...)
			return
		}
	}
}

// streamCursor adapts a sharedStream position to trace.Source for one
// member's thread. Next is called only from the goroutine stepping that
// member; different members' cursors read the stream concurrently.
type streamCursor struct {
	stream *sharedStream
	pos    uint64
}

// Next implements trace.Source over the shared stream.
func (c *streamCursor) Next(out *isa.Inst) {
	i := c.pos
	c.pos++
	s := c.stream
	if i >= s.n.Load() {
		s.materialise(i)
	}
	w := s.w.Load()
	rel := i - w.base
	*out = w.chunks[rel>>streamChunkBits][rel&streamChunkMask]
}
