package pipeline

import (
	"testing"
	"unsafe"
)

// TestUOpPoolGeneration checks the recycling invariants the whole
// rename/wakeup machinery rests on: a freed uop's generation bump kills
// stale references, and reuse hands back a fully reset uop.
func TestUOpPoolGeneration(t *testing.T) {
	c := &Core{threads: []thread{{}}}

	u := c.allocUOp()
	u.Tid = 0
	u.Seq = 42
	u.Executed = true
	ref := mkRef(u)
	if ref.live() != u {
		t.Fatal("fresh reference should be live")
	}
	if !ref.refersTo(u) {
		t.Fatal("refersTo should match the live uop")
	}

	c.freeUOp(u)
	if ref.live() != nil {
		t.Fatal("reference survived recycling")
	}
	if ref.refersTo(u) {
		t.Fatal("refersTo matched a recycled uop")
	}

	// Reuse returns the same object, reset, with the bumped generation.
	u2 := c.allocUOp()
	if u2 != u {
		t.Fatal("free list did not recycle the uop")
	}
	if u2.Seq != 0 || u2.Executed || u2.Tid != 0 {
		t.Fatalf("recycled uop not reset: %+v", u2)
	}
	if ref.live() != nil {
		t.Fatal("old reference resurrected by reuse")
	}
	if mkRef(u2).live() != u2 {
		t.Fatal("new reference to the recycled uop should be live")
	}
}

// TestUOpLayout guards the two-cache-line budget: uops are carved from
// slabs, and a field that pushes UOp past 128 bytes makes every uop
// straddle a third line.
func TestUOpLayout(t *testing.T) {
	if size := unsafe.Sizeof(UOp{}); size > 128 {
		t.Fatalf("UOp is %d bytes, budget is 128", size)
	}
}

// TestUOpSlabAllocation: an empty free list is refilled a slab at a
// time, every uop of the slab distinct and all but the first pooled.
func TestUOpSlabAllocation(t *testing.T) {
	c := &Core{threads: []thread{{}}}
	seen := map[*UOp]bool{}
	for i := 0; i < uopSlab; i++ {
		u := c.allocUOp()
		if u.pooled || seen[u] {
			t.Fatalf("allocation %d returned a pooled or duplicate uop", i)
		}
		seen[u] = true
		if want := uopSlab - 1 - i; len(c.uopFree) != want {
			t.Fatalf("after %d allocations the free list holds %d, want %d", i+1, len(c.uopFree), want)
		}
	}
	c.allocUOp()
	if len(c.uopFree) != uopSlab-1 {
		t.Fatalf("second slab left %d pooled, want %d", len(c.uopFree), uopSlab-1)
	}
}

func TestUOpDoubleFreePanics(t *testing.T) {
	c := &Core{threads: []thread{{}}}
	u := c.allocUOp()
	c.freeUOp(u)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	c.freeUOp(u)
}

// TestQueueRemoveByIndex covers the O(1) slot-index removal including
// after an insert-time compaction reindexes survivors.
func TestQueueRemoveByIndex(t *testing.T) {
	q := newQueue(4)
	var uops []*UOp
	for i := 0; i < 4; i++ {
		u := &UOp{Seq: uint64(i)}
		q.insert(u)
		uops = append(uops, u)
	}
	q.remove(uops[1])
	q.remove(uops[3])
	if q.len() != 2 {
		t.Fatalf("len = %d, want 2", q.len())
	}
	// Force compaction: keep inserting while removing the oldest live
	// entry, so the slot array grows past 2*cap and gets rebuilt.
	for i := 4; i < 12; i++ {
		q.insert(&UOp{Seq: uint64(i)})
		var oldest *UOp
		q.scan(func(u *UOp) bool { oldest = u; return false })
		q.remove(oldest)
	}
	// Every still-resident uop must be removable (indices valid).
	var live []*UOp
	q.scan(func(u *UOp) bool { live = append(live, u); return true })
	for _, u := range live {
		q.remove(u)
	}
	if q.len() != 0 {
		t.Fatalf("len = %d after removing all, want 0", q.len())
	}
}

// TestRingWrapNonPowerOfTwo exercises the branch-based index wrap with a
// capacity that is not a power of two.
func TestRingWrapNonPowerOfTwo(t *testing.T) {
	r := newRing(3)
	seq := uint64(0)
	push := func() {
		seq++
		r.push(&UOp{Seq: seq})
	}
	push()
	push()
	push()
	if got := r.popFront().Seq; got != 1 {
		t.Fatalf("popFront = %d, want 1", got)
	}
	push() // wraps
	if got := r.back().Seq; got != 4 {
		t.Fatalf("back = %d, want 4", got)
	}
	if got := r.popBack().Seq; got != 4 {
		t.Fatalf("popBack = %d, want 4", got)
	}
	if got := r.at(1).Seq; got != 3 {
		t.Fatalf("at(1) = %d, want 3", got)
	}
}
