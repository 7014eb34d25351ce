package main

import "testing"

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Req: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Req: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Req: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Req: 1, Name: "d", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	// root: 100 minus [10,60] and [90,100] = 40.
	for id, want := range map[int64]int64{1: 40, 2: 25, 3: 30, 4: 30, 5: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestResolveParentsPicksSmallestContainingSpan(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Req: 7, Name: "client.request", Start: 0, End: 100},
		{ID: 2, Parent: unresolved, Req: 7, Name: "serve.http", Start: 5, End: 95},
		{ID: 3, Parent: 2, Req: 7, Name: "core.scan", Start: 20, End: 90},
		{ID: 4, Parent: unresolved, Req: 7, Name: "store.read", Start: 30, End: 50},
		{ID: 5, Parent: unresolved, Req: 7, Name: "fault.read", Start: 35, End: 45},
		{ID: 6, Parent: unresolved, Req: 8, Name: "store.read", Start: 30, End: 50}, // another request
		{ID: 7, Parent: unresolved, Req: 7, Name: "fault.write", Start: 150, End: 160},
	}
	resolveParents(spans)
	for i, want := range []int64{0, 1, 2, 3, 4, 0, 0} {
		if spans[i].Parent != want {
			t.Errorf("span %d parent = %d, want %d", spans[i].ID, spans[i].Parent, want)
		}
	}
}

func TestExclusiveTimesSumToRoot(t *testing.T) {
	tree := []span{
		{ID: 1, Parent: 0, Name: "client.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "serve.query", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "store.read", Start: 20, End: 50},
		{ID: 4, Parent: 2, Name: "store.read", Start: 40, End: 70}, // parallel read
	}
	x := exclusive(tree)
	want := map[string]int64{"client.request": 20, "serve.query": 30, "store.read": 50}
	var sum int64
	for name, v := range x {
		sum += v
		if v != want[name] {
			t.Errorf("exclusive %s = %d, want %d", name, v, want[name])
		}
	}
	if sum != 100 {
		t.Errorf("exclusive times sum to %d, want the root's 100", sum)
	}
}
