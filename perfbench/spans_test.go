package main

import (
	"testing"
	"time"
)

func ns(d int) time.Duration { return time.Duration(d) }

func TestSelfTimesSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: ns(0), End: ns(100)},
		// Two overlapping children cover [10,50) once, not twice.
		{ID: 2, Parent: 1, Name: "a", Start: ns(10), End: ns(30)},
		{ID: 3, Parent: 1, Name: "a", Start: ns(20), End: ns(50)},
		{ID: 4, Parent: 1, Name: "b", Start: ns(60), End: ns(70)},
		// A child reaching past its parent only counts inside it.
		{ID: 5, Parent: 1, Name: "c", Start: ns(95), End: ns(120)},
		{ID: 6, Parent: 2, Name: "d", Start: ns(12), End: ns(14)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 45, 2: 18, 3: 30, 4: 10, 5: 25, 6: 2}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if byName["a"] != 48 || byName["root"] != 45 {
		t.Errorf("selfByName = %v", byName)
	}
}

func TestSelfTimesOfDisjointTreeAddUpToRoot(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: ns(0), End: ns(1000)},
		{ID: 2, Parent: 1, Name: "x", Start: ns(0), End: ns(400)},
		{ID: 3, Parent: 2, Name: "y", Start: ns(100), End: ns(300)},
		{ID: 4, Parent: 1, Name: "z", Start: ns(400), End: ns(1000)},
	}
	var total time.Duration
	for _, d := range selfTimes(spans) {
		total += d
	}
	if total != 1000 {
		t.Fatalf("self times add up to %v, want the root's 1000ns", total)
	}
}

func TestOutsideParentsCountsClippedTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: ns(0), End: ns(100)},
		// 10ns before and 20ns after the root.
		{ID: 2, Parent: 1, Name: "a", Start: ns(-10), End: ns(120)},
		// Inside a, but 5ns of it past a's end.
		{ID: 3, Parent: 2, Name: "b", Start: ns(110), End: ns(125)},
		// Wholly outside its parent.
		{ID: 4, Parent: 3, Name: "c", Start: ns(200), End: ns(207)},
		{ID: 5, Parent: 1, Name: "d", Start: ns(40), End: ns(60)},
	}
	if got := outsideParents(spans); got != 30+5+7 {
		t.Fatalf("outsideParents = %v, want 42ns", got)
	}
}

func TestAddFlatNestsByInterval(t *testing.T) {
	tr := newTracer()
	base := tr.epoch
	at := func(d int) time.Time { return base.Add(time.Duration(d)) }
	root := tr.add(0, "root", at(0), at(100))
	tr.addFlat(root, []flat{
		{Name: "inner", Start: at(20), End: at(30)},
		{Name: "outer", Start: at(10), End: at(60)},
		{Name: "after", Start: at(70), End: at(80)},
	})
	parent := map[string]string{}
	names := map[int]string{}
	for _, s := range tr.snapshot() {
		names[s.ID] = s.Name
	}
	for _, s := range tr.snapshot() {
		parent[s.Name] = names[s.Parent]
	}
	want := map[string]string{"root": "", "outer": "root", "inner": "outer", "after": "root"}
	for k, v := range want {
		if parent[k] != v {
			t.Errorf("parent of %s = %q, want %q", k, parent[k], v)
		}
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	id := tr.start(0, "x")
	tr.end(id)
	tr.addFlat(id, []flat{{Name: "y"}})
	if id != 0 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded something")
	}
}
