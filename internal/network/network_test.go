package network

import (
	"testing"

	"repro/internal/logic"
)

// buildSmall returns the network f = AND(AND(a,b), OR(c,d)) with f a PO.
func buildSmall(t *testing.T) (*Network, *Gate) {
	t.Helper()
	n := New("small")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	g1 := n.AddGate("g1", logic.And, a, b)
	g2 := n.AddGate("g2", logic.Or, c, d)
	f := n.AddGate("f", logic.And, g1, g2)
	n.MarkOutput(f)
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return n, f
}

func TestBuildAndCounts(t *testing.T) {
	n, f := buildSmall(t)
	if n.NumGates() != 7 || n.NumLogicGates() != 3 {
		t.Fatalf("counts = %d/%d", n.NumGates(), n.NumLogicGates())
	}
	if len(n.Inputs()) != 4 || len(n.Outputs()) != 1 {
		t.Fatal("inputs/outputs wrong")
	}
	if n.Outputs()[0] != f {
		t.Fatal("output identity")
	}
	if f.NumFanins() != 2 || f.NumFanouts() != 0 {
		t.Fatal("f pin counts")
	}
	if f.FanoutBranches() != 1 {
		t.Fatal("PO should count as one fanout branch")
	}
	g1 := n.FindGate("g1")
	if g1.NumFanouts() != 1 || g1.Fanouts()[0] != f {
		t.Fatal("g1 fanout list")
	}
}

func TestFindGateAndFreshName(t *testing.T) {
	n, _ := buildSmall(t)
	if n.FindGate("g1") == nil || n.FindGate("zzz") != nil {
		t.Fatal("FindGate")
	}
	name := n.FreshName("g1")
	if n.FindGate(name) != nil || name == "g1" {
		t.Fatal("FreshName collided")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	n := New("dup")
	n.AddInput("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate name")
		}
	}()
	n.AddInput("a")
}

func TestBadFaninCountPanics(t *testing.T) {
	n := New("bad")
	a := n.AddInput("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on 1-input AND")
		}
	}()
	n.AddGate("g", logic.And, a)
}

func TestReplaceFaninKeepsFanoutsConsistent(t *testing.T) {
	n, f := buildSmall(t)
	g1 := n.FindGate("g1")
	g2 := n.FindGate("g2")
	n.ReplaceFanin(f, 0, g2) // f = AND(g2, g2)
	if f.Fanin(0) != g2 || g2.NumFanouts() != 2 || g1.NumFanouts() != 0 {
		t.Fatal("ReplaceFanin bookkeeping")
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate after replace: %v", err)
	}
}

func TestSwapPins(t *testing.T) {
	n, f := buildSmall(t)
	g1, g2 := n.FindGate("g1"), n.FindGate("g2")
	a, c := n.FindGate("a"), n.FindGate("c")
	n.SwapPins(Pin{g1, 0}, Pin{g2, 0}) // swap a and c
	if g1.Fanin(0) != c || g2.Fanin(0) != a {
		t.Fatal("SwapPins drivers")
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate after swap: %v", err)
	}
	_ = f
}

func TestSwapPinsSelfNoop(t *testing.T) {
	n, _ := buildSmall(t)
	g1 := n.FindGate("g1")
	a := g1.Fanin(0)
	n.SwapPins(Pin{g1, 0}, Pin{g1, 0})
	if g1.Fanin(0) != a {
		t.Fatal("self-swap changed driver")
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertInverter(t *testing.T) {
	n, f := buildSmall(t)
	g1 := n.FindGate("g1")
	inv := n.InsertInverter(Pin{f, 0})
	if inv.Type != logic.Inv || inv.Fanin(0) != g1 || f.Fanin(0) != inv {
		t.Fatal("InsertInverter wiring")
	}
	if g1.NumFanouts() != 1 || g1.Fanouts()[0] != inv {
		t.Fatal("old driver fanout not rewired")
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTopoOrder(t *testing.T) {
	n, _ := buildSmall(t)
	order := n.TopoOrder()
	if len(order) != n.NumGates() {
		t.Fatal("topo length")
	}
	pos := make(map[*Gate]int)
	for i, g := range order {
		pos[g] = i
	}
	n.Gates(func(g *Gate) {
		for _, fin := range g.Fanins() {
			if pos[fin] >= pos[g] {
				t.Fatalf("%s not before %s", fin, g)
			}
		}
	})
}

func TestTopoOrderDeterministic(t *testing.T) {
	n, _ := buildSmall(t)
	a := n.TopoOrder()
	b := n.TopoOrder()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("TopoOrder not deterministic")
		}
	}
}

func TestReverseTopoOrder(t *testing.T) {
	n, _ := buildSmall(t)
	fwd := n.TopoOrder()
	rev := n.ReverseTopoOrder()
	for i := range fwd {
		if fwd[i] != rev[len(rev)-1-i] {
			t.Fatal("reverse order mismatch")
		}
	}
}

func TestLevelsAndDepth(t *testing.T) {
	n, f := buildSmall(t)
	levels := n.Levels()
	if levels[n.FindGate("a")] != 0 || levels[n.FindGate("g1")] != 1 || levels[f] != 2 {
		t.Fatalf("levels wrong: %v %v %v",
			levels[n.FindGate("a")], levels[n.FindGate("g1")], levels[f])
	}
	if n.Depth() != 2 {
		t.Fatal("depth")
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	n, f := buildSmall(t)
	g1 := n.FindGate("g1")
	// Force a cycle: g1's fanin becomes f.
	n.ReplaceFanin(g1, 0, f)
	if err := n.Validate(); err == nil {
		t.Fatal("Validate missed a cycle")
	}
}

func TestRemoveGateAndSweep(t *testing.T) {
	n, f := buildSmall(t)
	g1 := n.FindGate("g1")
	g2 := n.FindGate("g2")
	// Detach g1 from f, making g1 dead.
	n.ReplaceFanin(f, 0, g2)
	if got := n.Sweep(); got != 1 {
		t.Fatalf("Sweep removed %d, want 1", got)
	}
	if n.FindGate("g1") != nil {
		t.Fatal("g1 should be gone")
	}
	if n.NumGates() != 6 {
		t.Fatalf("NumGates after sweep = %d", n.NumGates())
	}
	_ = g1
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSweepCascades(t *testing.T) {
	// chain: a -> inv1 -> inv2 -> f(PO). Detach f from inv2; both invs die.
	n := New("chain")
	a := n.AddInput("a")
	i1 := n.AddGate("i1", logic.Inv, a)
	i2 := n.AddGate("i2", logic.Inv, i1)
	b := n.AddInput("b")
	f := n.AddGate("f", logic.And, i2, b)
	n.MarkOutput(f)
	n.ReplaceFanin(f, 0, b)
	if got := n.Sweep(); got != 2 {
		t.Fatalf("Sweep removed %d, want 2", got)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveLiveGatePanics(t *testing.T) {
	n, _ := buildSmall(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic removing live gate")
		}
	}()
	n.RemoveGate(n.FindGate("g1"))
}

func TestClone(t *testing.T) {
	n, f := buildSmall(t)
	f.SizeIdx = 2
	f.X, f.Y, f.Placed = 3, 4, true
	c, m := n.Clone()
	if c.NumGates() != n.NumGates() {
		t.Fatal("clone size")
	}
	cf := m[f]
	if cf == f || cf.Name() != "f" || !cf.PO || cf.SizeIdx != 2 || cf.X != 3 || !cf.Placed {
		t.Fatal("clone attributes")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mutating the clone must not touch the original.
	c.ReplaceFanin(cf, 0, c.FindGate("g2"))
	if f.Fanin(0) != n.FindGate("g1") {
		t.Fatal("clone mutation leaked into original")
	}
}

func TestSupportAndCone(t *testing.T) {
	n, f := buildSmall(t)
	sup := n.SupportOf(f)
	if len(sup) != 4 {
		t.Fatalf("support size %d", len(sup))
	}
	g1 := n.FindGate("g1")
	sup1 := n.SupportOf(g1)
	if len(sup1) != 2 || sup1[0].Name() != "a" || sup1[1].Name() != "b" {
		t.Fatal("support of g1")
	}
}

func TestMultiEdgeFanout(t *testing.T) {
	// A gate feeding the same sink twice has fanout multiplicity 2.
	n := New("multi")
	a := n.AddInput("a")
	x := n.AddGate("x", logic.Xor, a, a)
	n.MarkOutput(x)
	if a.NumFanouts() != 2 {
		t.Fatal("multi-edge fanout count")
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	order := n.TopoOrder()
	if len(order) != 2 || order[1] != x {
		t.Fatal("topo with multi-edge")
	}
}

func TestPinHelpers(t *testing.T) {
	n, f := buildSmall(t)
	p := Pin{f, 0}
	if !p.Valid() || p.Driver() != n.FindGate("g1") {
		t.Fatal("pin helpers")
	}
	bad := Pin{f, 5}
	if bad.Valid() {
		t.Fatal("out-of-range pin should be invalid")
	}
	if (Pin{}).Valid() {
		t.Fatal("zero pin should be invalid")
	}
	if p.String() == "" || (Pin{}).String() == "" {
		t.Fatal("pin String")
	}
}
