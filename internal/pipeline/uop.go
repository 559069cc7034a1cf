// Package pipeline implements one out-of-order SMT core: an 11-stage
// fetch/decode/rename/queue/issue/execute/writeback/commit pipeline with
// shared issue queues and physical registers, per-thread reorder buffers,
// wrong-path execution, and the flush machinery the IFetch policies drive.
package pipeline

import (
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/policy"
)

// UOp is one in-flight dynamic instruction. UOps are recycled through a
// per-core free list: Gen is bumped every time a uop is released, so a
// uopRef captured while it was live can detect that it now names a
// different (or pooled) instruction.
//
// The layout is part of the hot path: uops are carved from 64-entry slabs
// (see Core.allocUOp) and must stay within 128 bytes — two cache lines —
// which TestUOpLayout enforces. Fields are ordered 8-byte, then 4-byte,
// then bools, so the struct carries no padding; a new field goes into
// its size group, and one that does not fit means another must go.
type UOp struct {
	Inst isa.Inst
	// Seq is the per-thread fetch order; squashes are "younger than".
	Seq uint64
	// FetchedAt stamps fetch; the front-end pipe delivers the
	// instruction to rename FrontEndStages cycles later.
	FetchedAt uint64
	// PrevProd restores the rename table if this uop is squashed.
	PrevProd uopRef
	// RetryAt delays a memory uop's next issue attempt (TLB walk, full
	// MSHR file).
	RetryAt uint64
	// Load is the policy-visible descriptor, present only for
	// correct-path loads that missed the L1 data cache.
	Load *policy.LoadInfo

	// Tid is the core-local hardware context.
	Tid int32
	// Gen is the recycling generation; see uopRef.
	Gen uint32
	// pending counts the distinct source producers that had not executed
	// at rename and have not executed since; the uop is operand-ready
	// (its queue's ready bit is set) exactly when it is zero.
	pending int32
	// deps heads this uop's dependent list in the core's dependent-node
	// pool (0: none); markExecuted walks it to wake the consumers.
	deps int32
	// qIdx is the uop's slot in its issue queue while InQueue.
	qIdx int32
	// RASTop and RASDepth are the RAS repair snapshot (control uops).
	RASTop, RASDepth int32

	// WrongPath marks instructions fetched past an unresolved
	// mispredicted branch: they execute but never commit.
	WrongPath bool
	// Resource ownership flags (see core.go squash/commit for the
	// conservation rules).
	HasPReg bool
	InQueue bool
	// InWheel marks residence in the execution-completion wheel; a
	// squashed uop still in the wheel is recycled at writeback, not at
	// squash time.
	InWheel bool
	// pooled marks membership in the free list (double-free guard).
	pooled   bool
	Issued   bool
	Executed bool
	Squashed bool
	// MispredictedBranch marks a control uop whose resolution must
	// squash and redirect.
	MispredictedBranch bool
	// Memory state.
	TLBDone    bool
	TLBMissed  bool
	WaitingMem bool
}

// uopRef is a generation-validated reference to a producer uop. The
// pipeline frees uops at commit while rename-table entries and dependant
// source references may still name them; the generation check turns such
// stale references into "architectural" (nil), which is exactly the old
// semantics — a committed producer was always Executed.
type uopRef struct {
	u   *UOp
	gen uint32
}

// mkRef captures a reference to a live uop.
//
//mflush:hotpath
func mkRef(u *UOp) uopRef { return uopRef{u: u, gen: u.Gen} }

// live returns the referenced uop if it has not been recycled since the
// reference was taken, else nil.
//
//mflush:hotpath
func (r uopRef) live() *UOp {
	if r.u != nil && r.u.Gen == r.gen {
		return r.u
	}
	return nil
}

// refersTo reports whether r still references the live uop u.
func (r uopRef) refersTo(u *UOp) bool { return r.u == u && r.gen == u.Gen }

// StageAt classifies the uop's pipeline position for energy accounting.
// frontStages is the configured front-end depth.
func (u *UOp) StageAt(now uint64, frontStages int) energy.Stage {
	switch {
	case u.Executed:
		return energy.StageRegWrite
	case u.Issued || u.WaitingMem:
		return energy.StageExecute
	case u.InQueue:
		return energy.StageQueue
	default:
		// In the front-end pipe: apportion fetch/decode/rename by age.
		age := int(now - u.FetchedAt)
		third := frontStages / 3
		if third < 1 {
			third = 1
		}
		switch {
		case age < third:
			return energy.StageFetch
		case age < 2*third:
			return energy.StageDecode
		default:
			return energy.StageRename
		}
	}
}

// ring is a fixed-capacity FIFO of uops supporting tail truncation, used
// for the per-thread ROB and front-end queue.
type ring struct {
	buf  []*UOp
	head int
	size int
}

func newRing(capacity int) ring {
	if capacity <= 0 {
		panic("pipeline: ring capacity must be positive")
	}
	return ring{buf: make([]*UOp, capacity)}
}

func (r *ring) len() int   { return r.size }
func (r *ring) full() bool { return r.size == len(r.buf) }

// wrap folds an index in [0, 2*len) back into range: the ring is hot
// enough that an integer divide per access is measurable, and all callers
// produce offsets below twice the capacity.
func (r *ring) wrap(i int) int {
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

func (r *ring) push(u *UOp) {
	if r.full() {
		panic("pipeline: ring overflow")
	}
	r.buf[r.wrap(r.head+r.size)] = u
	r.size++
}

func (r *ring) front() *UOp {
	if r.size == 0 {
		return nil
	}
	return r.buf[r.head]
}

func (r *ring) popFront() *UOp {
	u := r.front()
	if u == nil {
		panic("pipeline: pop from empty ring")
	}
	r.buf[r.head] = nil
	r.head = r.wrap(r.head + 1)
	r.size--
	return u
}

func (r *ring) back() *UOp {
	if r.size == 0 {
		return nil
	}
	return r.buf[r.wrap(r.head+r.size-1)]
}

func (r *ring) popBack() *UOp {
	u := r.back()
	if u == nil {
		panic("pipeline: pop from empty ring")
	}
	r.buf[r.wrap(r.head+r.size-1)] = nil
	r.size--
	return u
}

// at returns the i-th oldest entry.
func (r *ring) at(i int) *UOp {
	if i < 0 || i >= r.size {
		panic("pipeline: ring index out of range")
	}
	return r.buf[r.wrap(r.head+i)]
}

// queue is a shared issue queue: a bounded collection preserving age
// order, with O(1) free-slot tracking and mid-queue removal by nil-ing.
// ready is a bitmap over slot indices with a bit set for every resident
// uop whose operands are all produced, so issue selection visits only
// issuable slots, in age order, and never the holes removals leave.
type queue struct {
	slots []*UOp
	ready []uint64
	count int
	cap   int
}

// newQueue sizes the slot array for its largest uncompacted length
// (insert compacts once it reaches twice the capacity), so the queue
// never reallocates.
func newQueue(capacity int) queue {
	return queue{
		slots: make([]*UOp, 0, 2*capacity),
		ready: make([]uint64, (2*capacity+63)/64),
		cap:   capacity,
	}
}

//mflush:hotpath
func (q *queue) hasSpace() bool { return q.count < q.cap }

func (q *queue) len() int { return q.count }

//mflush:hotpath
func (q *queue) insert(u *UOp) {
	if !q.hasSpace() {
		panic("pipeline: issue queue overflow")
	}
	// Compact at insert time only: remove() runs during issue selection,
	// and compacting there would move slots under the selection walk.
	if len(q.slots) >= 2*q.cap && q.count*2 <= len(q.slots) {
		clear(q.ready)
		live := q.slots[:0]
		for _, s := range q.slots {
			if s != nil {
				s.qIdx = int32(len(live))
				live = append(live, s)
				if s.pending == 0 {
					q.setBit(s.qIdx)
				}
			}
		}
		q.slots = live
	}
	u.qIdx = int32(len(q.slots))
	q.slots = append(q.slots, u)
	q.count++
	u.InQueue = true
	if u.pending == 0 {
		q.setBit(u.qIdx)
	}
}

// remove drops u from the queue (issue or squash) in O(1) via the slot
// index recorded at insert.
//
//mflush:hotpath
func (q *queue) remove(u *UOp) {
	i := int(u.qIdx)
	if !u.InQueue || i < 0 || i >= len(q.slots) || q.slots[i] != u {
		panic("pipeline: removing uop not in queue")
	}
	q.slots[i] = nil
	q.ready[i>>6] &^= 1 << (i & 63)
	q.count--
	u.InQueue = false
}

// markReady sets the ready bit of u, a resident uop whose last pending
// producer just executed.
//
//mflush:hotpath
func (q *queue) markReady(u *UOp) {
	if !u.InQueue {
		panic("pipeline: waking uop not in an issue queue")
	}
	q.setBit(u.qIdx)
}

//mflush:hotpath
func (q *queue) setBit(i int32) { q.ready[i>>6] |= 1 << (i & 63) }

// scan calls f on each entry in age order until f returns false.
func (q *queue) scan(f func(u *UOp) bool) {
	for _, s := range q.slots {
		if s == nil {
			continue
		}
		if !f(s) {
			return
		}
	}
}
