package pipeline

import (
	"testing"

	"repro/internal/isa"
)

// renameInst walks one instruction through fetch bookkeeping and rename
// on thread 0, bypassing the front end, and returns the renamed uop.
func renameInst(t *testing.T, c *Core, in isa.Inst) *UOp {
	t.Helper()
	th := c.threads[0]
	u := c.allocUOp()
	u.Inst = in
	u.Tid = th.id
	th.seq++
	u.Seq = th.seq
	th.icount++
	if !c.tryRename(th, u) {
		t.Fatalf("rename of %+v blocked", in)
	}
	return u
}

// aluInst is a single-cycle integer op writing dest from src1 and src2.
func aluInst(dest, src1, src2 isa.Reg) isa.Inst {
	return isa.Inst{PC: 0x1000, Class: isa.ClassInt, Dest: dest, Src1: src1, Src2: src2}
}

// readyBit reports whether u's slot is marked operand-ready.
func (q *queue) readyBit(u *UOp) bool {
	return u.InQueue && q.ready[u.qIdx>>6]&(1<<(u.qIdx&63)) != 0
}

// depLen counts the links on u's dependent list.
func (c *Core) depLen(u *UOp) int {
	n := 0
	for d := u.deps; d != 0; d = c.deps[d].next {
		n++
	}
	return n
}

func checkInvariants(t *testing.T, c *Core) {
	t.Helper()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadDependentIssuesInWakeupCycle: a load that misses the L1 is
// completed by HandleResponse, which runs before the core's Tick in the
// same cycle; its dependent must become ready right there and issue in
// that very cycle's issue stage.
func TestLoadDependentIssuesInWakeupCycle(t *testing.T) {
	pcs := &loopPC{base: 0x1000, span: 128}
	n := 0
	src := funcSource(func(out *isa.Inst) {
		n++
		*out = isa.Inst{PC: pcs.next(), Class: isa.ClassInt,
			Dest: isa.InvalidReg, Src1: isa.InvalidReg, Src2: isa.InvalidReg}
		switch n {
		case 1:
			out.Class, out.Dest, out.Addr = isa.ClassLoad, 5, 0x7000_0000
		case 2:
			out.Dest, out.Src1 = 6, 5
		}
	})
	h := newHarness(t, 1, nil, src)
	c := h.core
	th := c.threads[0]
	var load, dep *UOp
	for ; h.now < 20000; h.now++ {
		if load == nil && th.rob.len() >= 2 {
			load, dep = th.rob.at(0), th.rob.at(1)
			if load.Inst.Class != isa.ClassLoad || dep.Inst.Src1 != 5 || dep.pending != 1 {
				t.Fatalf("unexpected ROB head: %+v / %+v", load.Inst, dep.Inst)
			}
		}
		waiting := load != nil && load.WaitingMem
		for _, r := range h.l2.Tick(h.now) {
			c.HandleResponse(r, h.now)
		}
		if waiting && load.Executed {
			if load.DoneAt != h.now {
				t.Fatalf("load completed at %d, response cycle %d", load.DoneAt, h.now)
			}
			if dep.pending != 0 || !c.intQ.readyBit(dep) {
				t.Fatalf("dependent not woken by the response: pending=%d", dep.pending)
			}
			c.Tick(h.now)
			if !dep.Issued || dep.IssuedAt != h.now {
				t.Fatalf("dependent issued=%v at %d, want cycle %d", dep.Issued, dep.IssuedAt, h.now)
			}
			checkInvariants(t, c)
			return
		}
		c.Tick(h.now)
	}
	t.Fatal("the load never missed and returned")
}

// TestRecycledDependentIgnoresStaleWakeup: a dependent squashed while
// its producer is still in flight leaves a link on the producer's list.
// Once the dependent's uop is recycled and renamed as an unrelated
// instruction, the old producer's completion must not touch it.
func TestRecycledDependentIgnoresStaleWakeup(t *testing.T) {
	h := newHarness(t, 1, nil, funcSource(func(*isa.Inst) {}))
	c := h.core
	th := c.threads[0]

	p := renameInst(t, c, aluInst(5, isa.InvalidReg, isa.InvalidReg))
	q := renameInst(t, c, aluInst(7, isa.InvalidReg, isa.InvalidReg))
	d := renameInst(t, c, aluInst(6, 5, isa.InvalidReg))
	if d.pending != 1 || c.depLen(p) != 1 {
		t.Fatalf("dependent not linked: pending=%d links=%d", d.pending, c.depLen(p))
	}
	c.squashYounger(th, q.Seq, false, h.now)
	checkInvariants(t, c)

	// The squashed dependent's uop comes straight back off the free list
	// and now waits on a different producer.
	reused := renameInst(t, c, aluInst(8, 7, isa.InvalidReg))
	if reused != d {
		t.Fatal("the squashed uop was not recycled")
	}
	if reused.pending != 1 || c.intQ.readyBit(reused) {
		t.Fatalf("reused uop should wait on its new producer: pending=%d", reused.pending)
	}

	c.markExecuted(p, h.now)
	if reused.pending != 1 || c.intQ.readyBit(reused) {
		t.Fatalf("stale wakeup reached the recycled uop: pending=%d ready=%v",
			reused.pending, c.intQ.readyBit(reused))
	}
	checkInvariants(t, c)

	c.markExecuted(q, h.now)
	if reused.pending != 0 || !c.intQ.readyBit(reused) {
		t.Fatalf("real producer did not wake the uop: pending=%d", reused.pending)
	}
	checkInvariants(t, c)
}

// TestSameProducerBothSourcesWakesOnce: an instruction reading one
// producer through both sources waits on it once and is woken once;
// two distinct producers are two waits.
func TestSameProducerBothSourcesWakesOnce(t *testing.T) {
	h := newHarness(t, 1, nil, funcSource(func(*isa.Inst) {}))
	c := h.core

	p := renameInst(t, c, aluInst(5, isa.InvalidReg, isa.InvalidReg))
	same := renameInst(t, c, aluInst(6, 5, 5))
	if same.pending != 1 || c.depLen(p) != 1 {
		t.Fatalf("same producer counted twice: pending=%d links=%d", same.pending, c.depLen(p))
	}
	q := renameInst(t, c, aluInst(7, isa.InvalidReg, isa.InvalidReg))
	both := renameInst(t, c, aluInst(8, 5, 7))
	if both.pending != 2 {
		t.Fatalf("two producers should be two waits: pending=%d", both.pending)
	}
	checkInvariants(t, c)

	c.markExecuted(p, h.now)
	if same.pending != 0 || !c.intQ.readyBit(same) {
		t.Fatalf("single wakeup did not ready the uop: pending=%d", same.pending)
	}
	if both.pending != 1 || c.intQ.readyBit(both) {
		t.Fatalf("uop with an outstanding producer became ready: pending=%d", both.pending)
	}
	if c.depLen(p) != 0 {
		t.Fatal("executed producer kept its dependent list")
	}
	checkInvariants(t, c)

	c.markExecuted(q, h.now)
	if both.pending != 0 || !c.intQ.readyBit(both) {
		t.Fatalf("last producer did not ready the uop: pending=%d", both.pending)
	}
	checkInvariants(t, c)
}
