package rewire

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/supergate"
)

func TestRemoveRedundancyDeepPattern(t *testing.T) {
	// NAND(g, INV(NAND(g, x))) ≡ NAND(g, x): removal must drop the deeper
	// duplicate and sweep the dead chain.
	n := network.New("deep")
	a, b, x := n.AddInput("a"), n.AddInput("b"), n.AddInput("x")
	g := n.AddGate("g", logic.Nor, a, b)
	inner := n.AddGate("inner", logic.Nand, g, x)
	mid := n.AddGate("mid", logic.Inv, inner)
	f := n.AddGate("f", logic.Nand, g, mid)
	n.MarkOutput(f)
	orig, _ := n.Clone()
	before := n.NumGates()

	e := supergate.Extract(n)
	if len(e.Redundancies) != 1 {
		t.Fatalf("redundancies: %v", e.Redundancies)
	}
	r := e.Redundancies[0]
	if err := RemoveRedundancy(n, e.Of(r.Root), r); err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if ce, err := sim.EquivalentExhaustive(orig, n); err != nil || ce != nil {
		t.Fatalf("removal changed function: %v %v", ce, err)
	}
	if n.NumGates() >= before {
		t.Fatalf("removal did not shrink the network: %d -> %d", before, n.NumGates())
	}
	// Nothing redundant remains.
	if e2 := supergate.Extract(n); len(e2.Redundancies) != 0 {
		t.Fatalf("residual redundancies: %v", e2.Redundancies)
	}
}

func TestRemoveRedundancyDuplicatePin(t *testing.T) {
	// NAND(g, g, x) shrinks to NAND(g, x).
	n := network.New("dup")
	a, b, x := n.AddInput("a"), n.AddInput("b"), n.AddInput("x")
	g := n.AddGate("g", logic.Nor, a, b)
	f := n.AddGate("f", logic.Nand, g, g, x)
	n.MarkOutput(f)
	orig, _ := n.Clone()

	e := supergate.Extract(n)
	if len(e.Redundancies) != 1 {
		t.Fatalf("redundancies: %v", e.Redundancies)
	}
	r := e.Redundancies[0]
	if err := RemoveRedundancy(n, e.Of(r.Root), r); err != nil {
		t.Fatal(err)
	}
	if f.NumFanins() != 2 {
		t.Fatalf("pin not removed: %d fanins", f.NumFanins())
	}
	if ce, err := sim.EquivalentExhaustive(orig, n); err != nil || ce != nil {
		t.Fatalf("removal changed function: %v %v", ce, err)
	}
}

func TestRemoveRedundancyShrinksToInverter(t *testing.T) {
	// NAND(g, g) becomes INV(g).
	n := network.New("inv")
	a, b := n.AddInput("a"), n.AddInput("b")
	g := n.AddGate("g", logic.Nor, a, b)
	f := n.AddGate("f", logic.Nand, g, g)
	n.MarkOutput(f)
	orig, _ := n.Clone()

	e := supergate.Extract(n)
	r := e.Redundancies[0]
	if err := RemoveRedundancy(n, e.Of(r.Root), r); err != nil {
		t.Fatal(err)
	}
	if f.Type != logic.Inv || f.NumFanins() != 1 {
		t.Fatalf("gate not retyped: %v with %d pins", f.Type, f.NumFanins())
	}
	if ce, err := sim.EquivalentExhaustive(orig, n); err != nil || ce != nil {
		t.Fatalf("removal changed function: %v %v", ce, err)
	}
}

func TestRemoveRedundancyRejectsConflict(t *testing.T) {
	n := network.New("c1")
	a, b, x := n.AddInput("a"), n.AddInput("b"), n.AddInput("x")
	g := n.AddGate("g", logic.Nor, a, b)
	gn := n.AddGate("gn", logic.Inv, g)
	inner := n.AddGate("inner", logic.Nand, gn, x)
	mid := n.AddGate("mid", logic.Inv, inner)
	f := n.AddGate("f", logic.Nand, g, mid)
	n.MarkOutput(f)
	e := supergate.Extract(n)
	r := e.Redundancies[0]
	if !r.Conflict {
		t.Fatal("expected conflict case")
	}
	if err := RemoveRedundancy(n, e.Of(r.Root), r); err == nil {
		t.Fatal("case-1 removal must be rejected")
	}
}

func TestRemoveAllRedundanciesOnBenchmark(t *testing.T) {
	n, err := gen.Generate("i8") // profile injects 229 patterns
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := n.Clone()
	pins := func() int {
		total := 0
		n.Gates(func(g *network.Gate) { total += g.NumFanins() })
		return total
	}
	beforePins := pins()
	sigBefore := sim.Signature(n, 16, 5)

	removed := RemoveAllRedundancies(n)
	if removed < 150 {
		t.Fatalf("only %d redundancies removed", removed)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each removal deletes at least one in-pin (duplicate-literal shrink)
	// and sometimes whole gate chains.
	if got := pins(); got > beforePins-removed {
		t.Fatalf("pin count barely moved: %d -> %d for %d removals", beforePins, got, removed)
	}
	if got := sim.Signature(n, 16, 5); got != sigBefore {
		t.Fatal("redundancy removal changed the network function")
	}
	if ce, err := sim.EquivalentRandom(orig, n, 16, 77); err != nil || ce != nil {
		t.Fatalf("equivalence: %v %v", ce, err)
	}
	// Only case-1 (constant) redundancies may remain.
	e := supergate.Extract(n)
	for _, r := range e.Redundancies {
		if !r.Conflict {
			// A removable one survived — acceptable only if its supergate
			// could not be rebuilt; RemoveAll loops until no progress, so
			// anything left must be non-removable.
			sg := e.Of(r.Root)
			if err := RemoveRedundancy(n, sg, r); err == nil {
				t.Fatalf("RemoveAllRedundancies left a removable redundancy at %s", r.Stem.Name())
			}
		}
	}
}
