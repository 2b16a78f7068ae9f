package atpg

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/supergate"
)

func TestNESAndESOnKnownFunctions(t *testing.T) {
	// f = x0 & x1 over 2 vars: NES but not ES.
	and := []bool{false, false, false, true}
	if !NES(and, 0, 1) {
		t.Error("AND inputs should be NES")
	}
	if ES(and, 0, 1) {
		t.Error("AND inputs should not be ES")
	}
	// f = x0 & !x1: ES but not NES.
	andNot := []bool{false, true, false, false}
	if NES(andNot, 0, 1) {
		t.Error("x0&!x1 should not be NES")
	}
	if !ES(andNot, 0, 1) {
		t.Error("x0&!x1 should be ES")
	}
	// f = x0 ^ x1: both.
	xor := []bool{false, true, true, false}
	if !NES(xor, 0, 1) || !ES(xor, 0, 1) {
		t.Error("XOR inputs should be NES and ES")
	}
	// f = x0 & !x1 | !x0 & x1 & x2 — asymmetric pair (0,1)? f(1,0,0)=1,
	// f(0,1,0)=0: not NES; f(1,1,*) vs f(0,0,*): f(1,1,0)=0=f(0,0,0),
	// f(1,1,1)=0, f(0,0,1)=0: ES holds here, so use pair (0,2) instead.
	g := make([]bool, 8)
	for idx := range g {
		x0, x1, x2 := idx&1 == 1, idx>>1&1 == 1, idx>>2&1 == 1
		g[idx] = (x0 && !x1) || (!x0 && x1 && x2)
	}
	if NES(g, 0, 2) {
		t.Error("pair (0,2) should not be NES")
	}
}

func buildSG(t *testing.T, build func(n *network.Network)) *supergate.Supergate {
	t.Helper()
	n := network.New("t")
	build(n)
	e := supergate.Extract(n)
	for _, sg := range e.Supergates {
		if !sg.Trivial() || len(e.Supergates) == 1 {
			return sg
		}
	}
	t.Fatal("no supergate")
	return nil
}

func TestSupergateTruthTableAndOr(t *testing.T) {
	// f = NAND(INV(a), b): as a function of leaves (la at INV pin with
	// imp 0, lb at NAND pin with imp 1): f = !(!la & lb).
	sg := buildSG(t, func(n *network.Network) {
		a, b := n.AddInput("a"), n.AddInput("b")
		i := n.AddGate("i", logic.Inv, a)
		f := n.AddGate("f", logic.Nand, i, b)
		n.MarkOutput(f)
	})
	tt, err := SupergateTruthTable(sg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tt) != 4 {
		t.Fatalf("tt size %d", len(tt))
	}
	// Identify leaf order by driver names.
	var ia, ib int
	for i, l := range sg.Leaves {
		if l.Driver.Name() == "a" {
			ia = i
		} else {
			ib = i
		}
	}
	for idx := 0; idx < 4; idx++ {
		la := logic.Bit(idx >> ia & 1)
		lb := logic.Bit(idx >> ib & 1)
		want := !((la^1)&lb == 1)
		if tt[idx] != want {
			t.Fatalf("tt[%d] = %v want %v", idx, tt[idx], want)
		}
	}
}

func TestVerifySymmetriesOnHandBuiltSupergates(t *testing.T) {
	cases := []func(n *network.Network){
		// Deep and-or tree with mixed inversions.
		func(n *network.Network) {
			a, b, c, d := n.AddInput("a"), n.AddInput("b"), n.AddInput("c"), n.AddInput("d")
			n1 := n.AddGate("n1", logic.Nor, a, b)
			n2 := n.AddGate("n2", logic.Nor, n.AddGate("ic", logic.Inv, c), d)
			f := n.AddGate("f", logic.Nand, n1, n2)
			n.MarkOutput(f)
		},
		// XOR supergate with XNOR and INV interior.
		func(n *network.Network) {
			a, b, c, d := n.AddInput("a"), n.AddInput("b"), n.AddInput("c"), n.AddInput("d")
			x1 := n.AddGate("x1", logic.Xnor, a, b)
			x2 := n.AddGate("x2", logic.Xor, c, n.AddGate("id", logic.Inv, d))
			f := n.AddGate("f", logic.Xor, x1, x2)
			n.MarkOutput(f)
		},
		// Wide NAND with inverter pins.
		func(n *network.Network) {
			a, b, c := n.AddInput("a"), n.AddInput("b"), n.AddInput("c")
			f := n.AddGate("f", logic.Nand,
				n.AddGate("ia", logic.Inv, a), b, n.AddGate("ic", logic.Inv, c))
			n.MarkOutput(f)
		},
	}
	for i, build := range cases {
		sg := buildSG(t, build)
		if err := VerifySupergateSymmetries(sg); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

// The big one: on whole generated benchmarks, every supergate's promised
// symmetries hold per the exhaustive oracle (Theorem 1 + Lemmas 7, 8
// against Lemma 1). Supergates beyond the oracle limit are skipped.
func TestVerifySymmetriesOnBenchmarks(t *testing.T) {
	for _, name := range []string{"alu2", "c499", "c432"} {
		n, err := gen.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		e := supergate.Extract(n)
		checked := 0
		for _, sg := range e.Supergates {
			if len(sg.Leaves) > 14 { // keep the exhaustive pass fast
				continue
			}
			if err := VerifySupergateSymmetries(sg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checked++
		}
		if checked < 10 {
			t.Fatalf("%s: only %d supergates checked", name, checked)
		}
	}
}

func TestPinStuckAtTestable(t *testing.T) {
	// f = NAND(a, b): pin a s-a-1 is testable (set a=0, b=1), and in
	// f2 = NAND(a, a) the second pin s-a-1 is untestable.
	n := network.New("f")
	a, b := n.AddInput("a"), n.AddInput("b")
	f := n.AddGate("f", logic.Nand, a, b)
	f2 := n.AddGate("f2", logic.Nand, a, a)
	n.MarkOutput(f)
	n.MarkOutput(f2)

	ok, err := PinStuckAtTestable(n, network.Pin{Gate: f, Index: 0}, 1, f)
	if err != nil || !ok {
		t.Fatalf("NAND pin s-a-1 should be testable (%v, %v)", ok, err)
	}
	ok, err = PinStuckAtTestable(n, network.Pin{Gate: f2, Index: 1}, 1, f2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("duplicated pin s-a-1 should be untestable")
	}
}

func TestStemStuckAtTestable(t *testing.T) {
	// Constant-making conflict: f = NAND(g, INV(g)) ≡ 1, so the stem g is
	// completely untestable at f.
	n := network.New("c1")
	a, b := n.AddInput("a"), n.AddInput("b")
	g := n.AddGate("g", logic.Nor, a, b)
	gn := n.AddGate("gn", logic.Inv, g)
	f := n.AddGate("f", logic.Nand, g, gn)
	n.MarkOutput(f)
	for _, v := range []logic.Bit{0, 1} {
		ok, err := StemStuckAtTestable(n, g, v, f)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("stem s-a-%d should be untestable at constant root", v)
		}
	}
	// But g itself is testable at... g is observable at its own out-pin.
	ok, err := StemStuckAtTestable(n, g, 1, g)
	if err != nil || !ok {
		t.Fatalf("stem should be testable at itself (%v, %v)", ok, err)
	}
}

func TestVerifyRedundancyOnInjectedPatterns(t *testing.T) {
	// Case 2: NAND(g, INV(NAND(g,x))).
	n := network.New("r2")
	a, b, x := n.AddInput("a"), n.AddInput("b"), n.AddInput("x")
	g := n.AddGate("g", logic.Nor, a, b)
	inner := n.AddGate("inner", logic.Nand, g, x)
	mid := n.AddGate("mid", logic.Inv, inner)
	f := n.AddGate("f", logic.Nand, g, mid)
	n.MarkOutput(f)
	e := supergate.Extract(n)
	if len(e.Redundancies) != 1 {
		t.Fatalf("want 1 redundancy, got %v", e.Redundancies)
	}
	sg := e.Of(f)
	if err := VerifyRedundancy(n, e.Redundancies[0], sg); err != nil {
		t.Fatal(err)
	}

	// Case 1: NAND(g, INV(NAND(INV(g), x))).
	n2 := network.New("r1")
	a2, b2, x2 := n2.AddInput("a"), n2.AddInput("b"), n2.AddInput("x")
	g2 := n2.AddGate("g", logic.Nor, a2, b2)
	gn2 := n2.AddGate("gn", logic.Inv, g2)
	inner2 := n2.AddGate("inner", logic.Nand, gn2, x2)
	mid2 := n2.AddGate("mid", logic.Inv, inner2)
	f2 := n2.AddGate("f", logic.Nand, g2, mid2)
	n2.MarkOutput(f2)
	e2 := supergate.Extract(n2)
	if len(e2.Redundancies) != 1 || !e2.Redundancies[0].Conflict {
		t.Fatalf("want 1 conflict redundancy, got %v", e2.Redundancies)
	}
	if err := VerifyRedundancy(n2, e2.Redundancies[0], e2.Of(f2)); err != nil {
		t.Fatal(err)
	}
}

func TestCase2RedundanciesOnBenchmark(t *testing.T) {
	// Every case-2 redundancy reported on a generated benchmark must pass
	// the oracle (bounded support only).
	n, err := gen.Generate("alu2")
	if err != nil {
		t.Fatal(err)
	}
	e := supergate.Extract(n)
	verified := 0
	for _, r := range e.Redundancies {
		if r.Conflict {
			continue
		}
		if len(n.SupportOf(r.Root)) > 14 {
			continue
		}
		sg := e.Of(r.Root)
		if err := VerifyRedundancy(n, r, sg); err != nil {
			t.Fatal(err)
		}
		verified++
	}
	if verified == 0 {
		t.Skip("no oracle-sized case-2 redundancies in this benchmark")
	}
}

func TestOracleLimit(t *testing.T) {
	n := network.New("wide")
	var ins []*network.Gate
	for i := 0; i < MaxOracleInputs+1; i++ {
		ins = append(ins, n.AddInput(fmt.Sprintf("x%d", i)))
	}
	f := n.AddGate("f", logic.Nand, ins[0], ins[1])
	n.MarkOutput(f)
	// Truth-table limit on a fat supergate.
	big := &supergate.Supergate{Root: f, Kind: supergate.AndOr}
	for i := 0; i <= MaxOracleInputs; i++ {
		big.Leaves = append(big.Leaves, supergate.Leaf{})
	}
	if _, err := SupergateTruthTable(big); err == nil {
		t.Fatal("expected leaf-limit error")
	}
}
