package network

import (
	"strings"
	"testing"

	"repro/internal/logic"
)

// CheckAcyclic guards a stitched network; these tests pin both
// invariants it checks: a combinational cycle introduced by region-blind
// rewiring, and a fanin pointer left dangling at a deleted gate.

func TestCheckAcyclicClean(t *testing.T) {
	n := New("clean")
	a := n.AddInput("a")
	b := n.AddInput("b")
	g1 := n.AddGate("g1", logic.Nand, a, b)
	g2 := n.AddGate("g2", logic.Nor, g1, a)
	n.MarkOutput(g2)
	if err := n.CheckAcyclic(); err != nil {
		t.Fatalf("clean network reported: %v", err)
	}
}

func TestCheckAcyclicDetectsCycle(t *testing.T) {
	n := New("cyclic")
	a := n.AddInput("a")
	b := n.AddInput("b")
	g1 := n.AddGate("g1", logic.Nand, a, b)
	g2 := n.AddGate("g2", logic.Nor, g1, a)
	n.MarkOutput(g2)
	// ReplaceFanin performs no cycle check by design — that is exactly
	// what CheckAcyclic exists to catch after a stitched round.
	n.ReplaceFanin(g1, 0, g2)
	err := n.CheckAcyclic()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
}

func TestCheckAcyclicDetectsDeadFanin(t *testing.T) {
	n := New("dangling")
	a := n.AddInput("a")
	i1 := n.AddGate("i1", logic.Inv, a)
	f := n.AddGate("f", logic.Inv, i1)
	n.MarkOutput(f)
	dead := n.AddGate("dead", logic.Inv, a)
	n.RemoveGate(dead)
	// Simulate the corruption a buggy stitch would leave behind: a live
	// gate still pointing at the deleted one. No mutator can produce
	// this, so the test plants it directly.
	f.fanins[0] = dead
	err := n.CheckAcyclic()
	if err == nil || !strings.Contains(err.Error(), "dead fanin") {
		t.Fatalf("dead fanin not detected: %v", err)
	}
}

// TestTopoOrderFastFallback: creation order is topological for freshly
// built networks (the fast path), and rewiring that breaks it must make
// TopoOrderFast fall back to a correct, deterministic full sort.
func TestTopoOrderFastFallback(t *testing.T) {
	n := New("fast")
	a := n.AddInput("a")
	b := n.AddInput("b")
	g1 := n.AddGate("g1", logic.Nand, a, b)
	g2 := n.AddGate("g2", logic.Nand, a, b)
	g3 := n.AddGate("g3", logic.Inv, g2)
	n.MarkOutput(g1)
	n.MarkOutput(g3)

	assertTopological := func(order []*Gate) {
		t.Helper()
		if len(order) != n.NumGates() {
			t.Fatalf("order has %d gates, network has %d", len(order), n.NumGates())
		}
		pos := map[*Gate]int{}
		for i, g := range order {
			pos[g] = i
		}
		for _, g := range order {
			for _, f := range g.Fanins() {
				if pos[f] >= pos[g] {
					t.Fatalf("not topological: %s at %d before fanin %s at %d",
						g, pos[g], f, pos[f])
				}
			}
		}
	}
	assertTopological(n.TopoOrderFast())

	// Point the earlier gate g1 at the later gate g2: no cycle, but the
	// creation order is no longer topological.
	n.ReplaceFanin(g1, 0, g2)
	order := n.TopoOrderFast()
	assertTopological(order)
	// The fallback is a Kahn walk: sources in creation order, then each
	// gate as its last fanin is placed. TopoOrder keeps its own id
	// tie-break, which the fallback does not promise.
	want := []*Gate{a, b, g2, g3, g1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fallback order differs from Kahn's at %d: %s vs %s",
				i, order[i], want[i])
		}
	}
	if topo := n.TopoOrder(); topo[2] != g2 || topo[3] != g1 || topo[4] != g3 {
		t.Fatalf("TopoOrder lost its id tie-break: %v", topo)
	}

	// A cycle panics instead of returning a short order.
	n.ReplaceFanin(g2, 0, g1)
	defer func() {
		if recover() == nil {
			t.Fatal("TopoOrderFast on a cyclic network did not panic")
		}
	}()
	n.TopoOrderFast()
}

func TestRemoveGateForeignPanics(t *testing.T) {
	n1 := New("n1")
	a1 := n1.AddInput("a")
	n1.AddGate("g1", logic.Inv, a1)

	n2 := New("n2")
	a2 := n2.AddInput("a")
	stray := n2.AddGate("stray", logic.Inv, a2)
	n2.ReplaceFanin(stray, 0, a2) // no-op; keeps stray fanout-free

	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "another network") {
			t.Errorf("RemoveGate on a foreign gate: recover() = %v", r)
		}
	}()
	n1.RemoveGate(stray)
}
