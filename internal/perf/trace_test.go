package perf

import (
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []Span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past its parent
		{Name: "a1", Parent: 1, Start: 12, End: 15}, // nested in a
		{Name: "a2", Parent: 1, Start: 14, End: 18}, // overlaps a1
		{Name: "other", Parent: -1, Start: 0, End: 40},
	}
	// op: 100 minus the union [10,50] ∪ [90,100] = 100 - 50.
	// a: 20 minus [12,18]. Grandchildren do not count against op twice.
	want := []int64{50, 14, 30, 30, 3, 4, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestOpTraceRecordsNesting(t *testing.T) {
	tr := newTracer()
	root, endRoot := opTrace{tr: tr, op: 7, parent: -1}.span("op", "")
	child, endChild := root.span("driver.compile", "")
	_, endLeaf := child.span("cparser.parse", "libc.c")
	time.Sleep(time.Millisecond)
	endLeaf()
	endChild()
	endRoot()

	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for i, wantParent := range []int32{-1, 0, 1} {
		s := spans[i]
		if s.Parent != wantParent || s.Op != 7 || s.End < s.Start {
			t.Errorf("span %d = %+v, want parent %d, op 7, closed", i, s, wantParent)
		}
	}
	if spans[2].Unit != "libc.c" {
		t.Errorf("leaf unit = %q", spans[2].Unit)
	}
	self := selfTimes(spans)
	if self[2] < int64(time.Millisecond) || self[0] > self[2] {
		t.Errorf("self times %v: the sleep belongs to the leaf", self)
	}

	// A nil tracer records nothing and costs nothing to call.
	_, end := opTrace{}.span("op", "")
	end()
}
