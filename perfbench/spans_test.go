package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimesMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "campaign", Start: ms(0), End: ms(10)},
		// Two jobs on parallel workers overlap in [3,4]; a third runs
		// past the parent's end and counts only up to it.
		{ID: 2, Parent: 1, Name: "job", Start: ms(1), End: ms(4)},
		{ID: 3, Parent: 1, Name: "job", Start: ms(3), End: ms(6)},
		{ID: 4, Parent: 1, Name: "job", Start: ms(8), End: ms(12)},
		{ID: 5, Parent: 2, Name: "sim.open", Start: ms(1), End: ms(2)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: ms(3), 2: ms(2), 3: ms(3), 4: ms(4), 5: ms(1)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	byName := selfByName(spans)
	if byName["job"] != ms(9) || byName["campaign"] != ms(3) {
		t.Errorf("self time by name = %v", byName)
	}
}

func TestSelfTimeWithoutChildrenIsDuration(t *testing.T) {
	s := span{ID: 1, Name: "setup", Start: ms(2), End: ms(7)}
	if got := selfTimes([]span{s})[1]; got != ms(5) {
		t.Errorf("self time = %v, want 5ms", got)
	}
}

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *tracer
	id := tr.start("x", "", 0)
	tr.end(id)
	tr.add("y", "", 0, time.Now(), time.Now())
	if id != 0 || tr.snapshot() != nil {
		t.Errorf("nil tracer recorded span %d", id)
	}
}

func TestTracerRecordsParentage(t *testing.T) {
	tr := newTracer()
	root := tr.start("round", "", 0)
	child := tr.start("job", "k1", root)
	tr.end(child)
	tr.end(root)
	other := tr.start("round", "", 0)
	tr.end(other)
	got := tr.snapshot()
	if len(got) != 3 || got[1].Parent != root || got[1].Key != "k1" {
		t.Fatalf("spans = %+v", got)
	}
	for _, s := range got {
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
	groups := splitRounds(got)
	if len(groups) != 2 || len(groups[0]) != 2 || len(groups[1]) != 1 {
		t.Errorf("splitRounds grouped %d rounds: %+v", len(groups), groups)
	}
}
