package supergate

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/network"
)

// findSG returns the supergate rooted at the named gate.
func findSG(t *testing.T, e *Extraction, root string, n *network.Network) *Supergate {
	t.Helper()
	g := n.FindGate(root)
	if g == nil {
		t.Fatalf("no gate %s", root)
	}
	sg := e.Of(g)
	if sg == nil {
		t.Fatalf("gate %s not covered", root)
	}
	return sg
}

func TestNandNorAlternationFormsOneSupergate(t *testing.T) {
	// f = NAND(NOR(a,b), NOR(c,d)) is AND(OR',OR') — one and-or supergate
	// covering all three gates with four leaves implied to 0.
	n := network.New("alt")
	a, b := n.AddInput("a"), n.AddInput("b")
	c, d := n.AddInput("c"), n.AddInput("d")
	n1 := n.AddGate("n1", logic.Nor, a, b)
	n2 := n.AddGate("n2", logic.Nor, c, d)
	f := n.AddGate("f", logic.Nand, n1, n2)
	n.MarkOutput(f)

	e := Extract(n)
	if len(e.Supergates) != 1 {
		t.Fatalf("%d supergates, want 1", len(e.Supergates))
	}
	sg := e.Supergates[0]
	if sg.Kind != AndOr || sg.Root != f || len(sg.Gates) != 3 || len(sg.Leaves) != 4 {
		t.Fatalf("unexpected supergate: %v", sg)
	}
	for _, l := range sg.Leaves {
		if l.Imp != 0 {
			t.Errorf("leaf %v imp = %d, want 0 (ncv of OR)", l.Pin, l.Imp)
		}
		if l.Depth != 2 {
			t.Errorf("leaf %v depth = %d, want 2", l.Pin, l.Depth)
		}
	}
}

func TestInverterAbsorbedAtPin(t *testing.T) {
	// f = NAND(INV(a), b): the inverter is covered; its pin gets the
	// complemented implied value.
	n := network.New("invpin")
	a, b := n.AddInput("a"), n.AddInput("b")
	i := n.AddGate("i", logic.Inv, a)
	f := n.AddGate("f", logic.Nand, i, b)
	n.MarkOutput(f)

	e := Extract(n)
	if len(e.Supergates) != 1 {
		t.Fatalf("%d supergates, want 1", len(e.Supergates))
	}
	sg := e.Supergates[0]
	if len(sg.Gates) != 2 {
		t.Fatalf("covered %d gates, want 2 (INV absorbed)", len(sg.Gates))
	}
	imps := map[string]logic.Bit{}
	for _, l := range sg.Leaves {
		imps[l.Driver.Name()] = l.Imp
	}
	// NAND implies 1 at its pins; through the inverter a gets 0.
	if imps["a"] != 0 || imps["b"] != 1 {
		t.Fatalf("implied values wrong: %v", imps)
	}
}

func TestImplicationStopsAtWrongPolarity(t *testing.T) {
	// f = NAND(g1, x) with g1 = NAND(a,b): NAND implies 1 at its pins but
	// a NAND driver needs 0 at its out-pin to imply its inputs, so g1 is
	// a leaf and becomes its own supergate root.
	n := network.New("stop")
	a, b, x := n.AddInput("a"), n.AddInput("b"), n.AddInput("x")
	g1 := n.AddGate("g1", logic.Nand, a, b)
	f := n.AddGate("f", logic.Nand, g1, x)
	n.MarkOutput(f)

	e := Extract(n)
	if len(e.Supergates) != 2 {
		t.Fatalf("%d supergates, want 2", len(e.Supergates))
	}
	sgF := findSG(t, e, "f", n)
	sgG := findSG(t, e, "g1", n)
	if sgF == sgG {
		t.Fatal("g1 absorbed despite wrong polarity")
	}
	if !sgF.Trivial() || !sgG.Trivial() {
		t.Fatal("both supergates should be trivial")
	}
}

func TestMultiFanoutStopsAbsorption(t *testing.T) {
	// Stem s = NOR(a,b) feeds two NANDs: s cannot be absorbed by either.
	n := network.New("stem")
	a, b, x, y := n.AddInput("a"), n.AddInput("b"), n.AddInput("x"), n.AddInput("y")
	s := n.AddGate("s", logic.Nor, a, b)
	f1 := n.AddGate("f1", logic.Nand, s, x)
	f2 := n.AddGate("f2", logic.Nand, s, y)
	n.MarkOutput(f1)
	n.MarkOutput(f2)

	e := Extract(n)
	if len(e.Supergates) != 3 {
		t.Fatalf("%d supergates, want 3", len(e.Supergates))
	}
	if sg := findSG(t, e, "s", n); sg.Root != s {
		t.Fatal("stem should be its own root")
	}
}

func TestPOCountsAsFanoutBranch(t *testing.T) {
	// g is both a PO and feeds f: even with one sink gate it has two
	// fanout branches, so it must not be absorbed (its value is visible).
	n := network.New("po")
	a, b, x := n.AddInput("a"), n.AddInput("b"), n.AddInput("x")
	g := n.AddGate("g", logic.Nor, a, b)
	f := n.AddGate("f", logic.Nand, g, x)
	n.MarkOutput(g)
	n.MarkOutput(f)

	e := Extract(n)
	sgG := findSG(t, e, "g", n)
	sgF := findSG(t, e, "f", n)
	if sgG == sgF {
		t.Fatal("PO gate absorbed into a supergate")
	}
}

func TestXorSupergate(t *testing.T) {
	// f = XOR(XNOR(a,b), INV(c)): one xor supergate covering 3 gates.
	n := network.New("xor")
	a, b, c := n.AddInput("a"), n.AddInput("b"), n.AddInput("c")
	x1 := n.AddGate("x1", logic.Xnor, a, b)
	i := n.AddGate("i", logic.Inv, c)
	f := n.AddGate("f", logic.Xor, x1, i)
	n.MarkOutput(f)

	e := Extract(n)
	if len(e.Supergates) != 1 {
		t.Fatalf("%d supergates, want 1", len(e.Supergates))
	}
	sg := e.Supergates[0]
	if sg.Kind != Xor || len(sg.Gates) != 3 || len(sg.Leaves) != 3 {
		t.Fatalf("unexpected xor supergate: %v", sg)
	}
}

func TestXorStopsUnderAndOr(t *testing.T) {
	// An XOR child of a NAND supergate is xor- vs and-or-mutually
	// exclusive (Definition 1): it becomes a separate root.
	n := network.New("mixed")
	a, b, x := n.AddInput("a"), n.AddInput("b"), n.AddInput("x")
	xo := n.AddGate("xo", logic.Xor, a, b)
	f := n.AddGate("f", logic.Nand, xo, x)
	n.MarkOutput(f)

	e := Extract(n)
	if len(e.Supergates) != 2 {
		t.Fatalf("%d supergates, want 2", len(e.Supergates))
	}
	if findSG(t, e, "xo", n).Kind != Xor {
		t.Fatal("xor child should root an xor supergate")
	}
	if findSG(t, e, "f", n).Kind != AndOr {
		t.Fatal("f should root an and-or supergate")
	}
}

func TestUnaryRootPeeling(t *testing.T) {
	// PO inverter above a NAND: the supergate root is the inverter but
	// its functional base is the NAND; leaves implied to 1.
	n := network.New("peel")
	a, b := n.AddInput("a"), n.AddInput("b")
	g := n.AddGate("g", logic.Nand, a, b)
	f := n.AddGate("f", logic.Inv, g)
	n.MarkOutput(f)

	e := Extract(n)
	if len(e.Supergates) != 1 {
		t.Fatalf("%d supergates, want 1", len(e.Supergates))
	}
	sg := e.Supergates[0]
	if sg.Root != f || sg.Kind != AndOr || len(sg.Gates) != 2 {
		t.Fatalf("unexpected: %v", sg)
	}
	for _, l := range sg.Leaves {
		if l.Imp != 1 || l.Depth != 2 {
			t.Errorf("leaf %v: imp %d depth %d, want 1/2", l.Pin, l.Imp, l.Depth)
		}
	}
}

func TestPureChain(t *testing.T) {
	// PI -> INV -> INV(PO): a chain supergate with one leaf.
	n := network.New("chain")
	a := n.AddInput("a")
	i1 := n.AddGate("i1", logic.Inv, a)
	f := n.AddGate("f", logic.Inv, i1)
	n.MarkOutput(f)

	e := Extract(n)
	if len(e.Supergates) != 1 {
		t.Fatalf("%d supergates, want 1", len(e.Supergates))
	}
	sg := e.Supergates[0]
	if sg.Kind != Chain || len(sg.Gates) != 2 || len(sg.Leaves) != 1 {
		t.Fatalf("unexpected chain: %v", sg)
	}
}

func TestRedundancyCase2(t *testing.T) {
	// NAND(g, INV(NAND(g,x))) ≡ NAND(g,x): implication reconverges on
	// stem g with agreeing value 1 — Fig. 1(b).
	n := network.New("red2")
	a, b, x := n.AddInput("a"), n.AddInput("b"), n.AddInput("x")
	g := n.AddGate("g", logic.Nor, a, b) // stem with 2 fanouts
	inner := n.AddGate("inner", logic.Nand, g, x)
	mid := n.AddGate("mid", logic.Inv, inner)
	f := n.AddGate("f", logic.Nand, g, mid)
	n.MarkOutput(f)

	e := Extract(n)
	if len(e.Redundancies) != 1 {
		t.Fatalf("%d redundancies, want 1 (%v)", len(e.Redundancies), e.Redundancies)
	}
	r := e.Redundancies[0]
	if r.Stem != g || r.Conflict || r.Root != f {
		t.Fatalf("unexpected redundancy: %+v", r)
	}
}

func TestRedundancyCase1Conflict(t *testing.T) {
	// NAND(g, INV(NAND(INV(g), x))): implication reaches g with both
	// values — Fig. 1(a).
	n := network.New("red1")
	a, b, x := n.AddInput("a"), n.AddInput("b"), n.AddInput("x")
	g := n.AddGate("g", logic.Nor, a, b)
	gn := n.AddGate("gn", logic.Inv, g)
	inner := n.AddGate("inner", logic.Nand, gn, x)
	mid := n.AddGate("mid", logic.Inv, inner)
	f := n.AddGate("f", logic.Nand, g, mid)
	n.MarkOutput(f)

	e := Extract(n)
	if len(e.Redundancies) != 1 {
		t.Fatalf("%d redundancies, want 1", len(e.Redundancies))
	}
	r := e.Redundancies[0]
	if r.Stem != g || !r.Conflict {
		t.Fatalf("unexpected redundancy: %+v", r)
	}
	if len(r.Values) != 2 {
		t.Fatal("conflict should record both values")
	}
}

func TestDuplicatePinRedundancy(t *testing.T) {
	// NAND(s, s) reconverges trivially on s.
	n := network.New("dup")
	a, b := n.AddInput("a"), n.AddInput("b")
	s := n.AddGate("s", logic.Nor, a, b)
	f := n.AddGate("f", logic.Nand, s, s)
	n.MarkOutput(f)
	e := Extract(n)
	if len(e.Redundancies) != 1 || e.Redundancies[0].Conflict {
		t.Fatalf("want one case-2 redundancy, got %v", e.Redundancies)
	}
}

// Partition invariants on all Table 1 benchmarks (the paper's §3.2:
// "the network is uniquely partitioned").
func TestPartitionInvariants(t *testing.T) {
	for _, name := range []string{"alu2", "c499", "k2", "c432"} {
		n, err := gen.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		e := Extract(n)
		// Every logic gate covered exactly once.
		counts := make(map[*network.Gate]int)
		for _, sg := range e.Supergates {
			for _, g := range sg.Gates {
				counts[g]++
			}
			// Interior gates are fanout-free; the root may have any
			// fanout count.
			for _, g := range sg.Gates {
				if g != sg.Root && g.FanoutBranches() != 1 {
					t.Errorf("%s: covered interior gate %s has %d fanout branches",
						name, g, g.FanoutBranches())
				}
			}
			// Leaves' drivers are outside the supergate.
			inSG := make(map[*network.Gate]bool)
			for _, g := range sg.Gates {
				inSG[g] = true
			}
			for _, l := range sg.Leaves {
				if inSG[l.Driver] {
					t.Errorf("%s: leaf driver %s inside its own supergate", name, l.Driver)
				}
				if !inSG[l.Pin.Gate] {
					t.Errorf("%s: leaf pin gate %s outside the supergate", name, l.Pin.Gate)
				}
			}
		}
		total := 0
		n.Gates(func(g *network.Gate) {
			if g.IsInput() {
				return
			}
			total++
			if counts[g] != 1 {
				t.Errorf("%s: gate %s covered %d times", name, g, counts[g])
			}
			if e.Of(g) == nil {
				t.Errorf("%s: gate %s missing from the Of index", name, g)
			}
		})
		if total == 0 {
			t.Fatalf("%s: empty network", name)
		}
	}
}

func TestBenchmarkStatsShape(t *testing.T) {
	// Coverage and L should land in the neighborhood the paper reports:
	// coverage averages 27.6% (we accept a broad 10–70% band per circuit)
	// and k2's PLA plane yields the largest supergate.
	cov := func(name string) (float64, int) {
		n, err := gen.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		e := Extract(n)
		return e.Coverage(), e.MaxLeaves()
	}
	for _, name := range []string{"alu2", "c499", "c432", "k2", "i8"} {
		c, L := cov(name)
		if c < 0.08 || c > 0.75 {
			t.Errorf("%s: coverage %.1f%% outside plausible band", name, 100*c)
		}
		if L < 3 {
			t.Errorf("%s: max supergate has only %d leaves", name, L)
		}
	}
	_, lK2 := cov("k2")
	_, lC499 := cov("c499")
	if lK2 <= lC499 {
		t.Errorf("k2 (PLA) should have a larger max supergate than c499 (parity): %d vs %d", lK2, lC499)
	}
}

func TestRedundanciesFoundInGeneratedBenchmarks(t *testing.T) {
	n, err := gen.Generate("i8") // profile injects 229 redundancies
	if err != nil {
		t.Fatal(err)
	}
	e := Extract(n)
	if len(e.Redundancies) < 50 {
		t.Fatalf("only %d redundancies found in i8-alike, want >= 50", len(e.Redundancies))
	}
}

func TestExtractionDeterministic(t *testing.T) {
	n, err := gen.Generate("alu2")
	if err != nil {
		t.Fatal(err)
	}
	e1 := Extract(n)
	e2 := Extract(n)
	if len(e1.Supergates) != len(e2.Supergates) {
		t.Fatal("supergate count differs between runs")
	}
	for i := range e1.Supergates {
		a, b := e1.Supergates[i], e2.Supergates[i]
		if a.Root != b.Root || len(a.Leaves) != len(b.Leaves) || a.Kind != b.Kind {
			t.Fatalf("supergate %d differs", i)
		}
	}
}

func TestKindString(t *testing.T) {
	if AndOr.String() != "and-or" || Xor.String() != "xor" || Chain.String() != "chain" {
		t.Fatal("kind names")
	}
}

// Property: extraction partitions any generated circuit and the implied
// leaf values always equal the ncv of their pin's gate base — the §2
// definition of direct backward implication.
func TestExtractionPropertiesOnRandomProfiles(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p := gen.Profile{
			Name: "prop", Seed: seed, NumPI: 12, TargetGates: 120,
			XorFrac: 0.25, NorFrac: 0.4, InvFrac: 0.15,
			Locality: 0.5, MaxFanin: 4, Redundant: 2,
		}
		n := gen.FromProfile(p)
		e := Extract(n)
		covered := 0
		for _, sg := range e.Supergates {
			covered += len(sg.Gates)
			for _, l := range sg.Leaves {
				if sg.Kind != AndOr {
					continue
				}
				base, _ := l.Pin.Gate.Type.Base()
				want := l.Imp
				if l.Pin.Gate.Type.IsUnary() {
					// Unary pins carry whatever the implication pushed
					// through; no ncv constraint.
					continue
				}
				if base.NonControllingValue() != want {
					t.Fatalf("seed %d: leaf %v imp %d != ncv(%v)", seed, l.Pin, want, base)
				}
			}
		}
		if covered != n.NumLogicGates() {
			t.Fatalf("seed %d: covered %d of %d gates", seed, covered, n.NumLogicGates())
		}
	}
}
