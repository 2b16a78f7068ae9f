package rewire

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/supergate"
	"repro/internal/techmap"
)

func extract1(t *testing.T, n *network.Network) *supergate.Extraction {
	t.Helper()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return supergate.Extract(n)
}

// fig2 builds the paper's Fig. 2 situation: an OR-rooted supergate where h
// and k sit at different depths with equal implied values.
func fig2() (*network.Network, *network.Gate) {
	n := network.New("fig2")
	h := n.AddInput("h")
	x := n.AddInput("x")
	k := n.AddInput("k")
	inner := n.AddGate("inner", logic.Nor, h, x)
	innerInv := n.AddGate("innerInv", logic.Inv, inner)
	f := n.AddGate("f", logic.Nor, innerInv, k)
	n.MarkOutput(f)
	return n, f
}

func TestOptionsLemma7(t *testing.T) {
	// NAND(INV(a), b): leaf imps are 0 (a side) and 1 (b side) —
	// inverting swappable only. NAND(a, b): equal imps — non-inverting.
	n := network.New("l7")
	a, b := n.AddInput("a"), n.AddInput("b")
	i := n.AddGate("i", logic.Inv, a)
	f := n.AddGate("f", logic.Nand, i, b)
	n.MarkOutput(f)
	e := extract1(t, n)
	sg := e.Of(f)
	nonInv, inv := Options(sg, 0, 1)
	if nonInv || !inv {
		t.Fatalf("mixed-imp leaves: nonInv=%v inv=%v, want false/true", nonInv, inv)
	}
	if ni, _ := Options(sg, 0, 0); ni {
		t.Fatal("self-pair should not be swappable")
	}
}

func TestOptionsLemma8Xor(t *testing.T) {
	n := network.New("l8")
	a, b := n.AddInput("a"), n.AddInput("b")
	f := n.AddGate("f", logic.Xor, a, b)
	n.MarkOutput(f)
	e := extract1(t, n)
	nonInv, inv := Options(e.Of(f), 0, 1)
	if !nonInv || !inv {
		t.Fatal("xor leaves must be both inverting and non-inverting swappable")
	}
}

func TestFig2NonInvertingSwap(t *testing.T) {
	n, f := fig2()
	orig, _ := n.Clone()
	e := extract1(t, n)
	sg := e.Of(f)
	if sg.Trivial() || len(sg.Leaves) != 3 {
		t.Fatalf("fig2 supergate wrong: %v", sg)
	}
	// Find h and k leaves; both implied 0 per the figure.
	var hi, ki = -1, -1
	for i, l := range sg.Leaves {
		switch l.Driver.Name() {
		case "h":
			hi = i
		case "k":
			ki = i
		}
	}
	if hi < 0 || ki < 0 {
		t.Fatalf("h/k leaves missing: %v", sg.Leaves)
	}
	if sg.Leaves[hi].Imp != 0 || sg.Leaves[ki].Imp != 0 {
		t.Fatalf("imp values %d/%d, fig2 expects 0/0", sg.Leaves[hi].Imp, sg.Leaves[ki].Imp)
	}
	nonInv, _ := Options(sg, hi, ki)
	if !nonInv {
		t.Fatal("h and k must be non-inverting swappable")
	}
	undo := Apply(n, Swap{SG: sg, I: hi, J: ki})
	if ce, err := sim.EquivalentExhaustive(orig, n); err != nil || ce != nil {
		t.Fatalf("fig2 swap changed function: %v %v", ce, err)
	}
	undo()
	if ce, err := sim.EquivalentExhaustive(orig, n); err != nil || ce != nil {
		t.Fatalf("undo broke function: %v %v", ce, err)
	}
}

func TestInvertingSwapPreservesFunction(t *testing.T) {
	n := network.New("inv")
	a, b, c := n.AddInput("a"), n.AddInput("b"), n.AddInput("c")
	i := n.AddGate("i", logic.Inv, a)
	f := n.AddGate("f", logic.Nand, i, b, c)
	n.MarkOutput(f)
	orig, _ := n.Clone()
	e := extract1(t, n)
	sg := e.Of(f)
	// Pick a mixed-imp pair.
	var ia, ib = -1, -1
	for idx, l := range sg.Leaves {
		if l.Imp == 0 {
			ia = idx
		} else if ib < 0 {
			ib = idx
		}
	}
	undo := Apply(n, Swap{SG: sg, I: ia, J: ib, Inverting: true})
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if ce, err := sim.EquivalentExhaustive(orig, n); err != nil || ce != nil {
		t.Fatalf("inverting swap changed function: %v %v", ce, err)
	}
	undo()
	if ce, err := sim.EquivalentExhaustive(orig, n); err != nil || ce != nil {
		t.Fatalf("undo broke function: %v %v", ce, err)
	}
}

func TestInvertingSwapCollapsesInverters(t *testing.T) {
	// When the remote driver is itself an inverter, the swap must reuse
	// its input rather than stacking INV(INV(x)).
	n := network.New("collapse")
	a, b := n.AddInput("a"), n.AddInput("b")
	i := n.AddGate("i", logic.Inv, a)
	f := n.AddGate("f", logic.Nand, i, b)
	n.MarkOutput(f)
	before := n.NumGates()
	e := extract1(t, n)
	sg := e.Of(f)
	Apply(n, Swap{SG: sg, I: 0, J: 1, Inverting: true})
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each side adds at most one inverter; a final double-inverter
	// collapse (as the optimizer runs) brings the count back down.
	if n.NumGates() > before+2 {
		t.Fatalf("inverter stacking: %d -> %d gates", before, n.NumGates())
	}
	techmap.CollapseInverterPairs(n)
	if n.NumGates() > before+1 {
		t.Fatalf("collapse left %d gates (started with %d)", n.NumGates(), before)
	}
}

func TestEnumerate(t *testing.T) {
	// NAND(a,b,c): 3 equal-imp leaves -> 3 non-inverting swaps.
	n := network.New("en")
	a, b, c := n.AddInput("a"), n.AddInput("b"), n.AddInput("c")
	f := n.AddGate("f", logic.Nand, a, b, c)
	n.MarkOutput(f)
	e := extract1(t, n)
	swaps := Enumerate(e.Of(f))
	if len(swaps) != 3 {
		t.Fatalf("%d swaps, want 3", len(swaps))
	}
	for _, s := range swaps {
		if s.Inverting {
			t.Fatal("equal-imp pairs must be non-inverting")
		}
	}
	// Chain supergates yield nothing.
	n2 := network.New("chain")
	x := n2.AddInput("x")
	i1 := n2.AddGate("i1", logic.Inv, x)
	f2 := n2.AddGate("f2", logic.Inv, i1)
	n2.MarkOutput(f2)
	e2 := extract1(t, n2)
	if got := Enumerate(e2.Of(f2)); len(got) != 0 {
		t.Fatalf("chain swaps: %v", got)
	}
}

// Property: every enumerated swap on generated benchmarks preserves
// function and never moves a placed cell.
func TestAllSwapsPreserveFunctionOnBenchmark(t *testing.T) {
	n, err := gen.Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	lib := library.Default035()
	place.Place(n, lib, place.Options{Seed: 1, MovesPerCell: 5})
	locs := place.Snapshot(n)
	e := supergate.Extract(n)
	sig := sim.Signature(n, 16, 7)
	checked := 0
	for _, sg := range e.NonTrivial() {
		swaps := Enumerate(sg)
		if len(swaps) == 0 {
			continue
		}
		// Exercise up to 3 swaps per supergate to bound runtime.
		if len(swaps) > 3 {
			swaps = swaps[:3]
		}
		for _, s := range swaps {
			undo := Apply(n, s)
			if err := n.Validate(); err != nil {
				t.Fatalf("%v broke the network: %v", s, err)
			}
			if got := sim.Signature(n, 16, 7); got == sig {
				// Equal signature is expected — function preserved.
			} else {
				t.Fatalf("%v changed function (signature %x != %x)", s, got, sig)
			}
			undo()
			checked++
		}
		// Placement untouched throughout.
		if name, same := place.SameLocations(locs, place.Snapshot(n)); !same {
			t.Fatalf("swap moved cell %s", name)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d swaps exercised", checked)
	}
	if got := sim.Signature(n, 16, 7); got != sig {
		t.Fatal("undo chain did not restore the network")
	}
}

func TestDeMorganPreservesFunction(t *testing.T) {
	// DeMorgan a NAND(NOR, NOR) supergate.
	n := network.New("dm")
	a, b, c, d := n.AddInput("a"), n.AddInput("b"), n.AddInput("c"), n.AddInput("d")
	n1 := n.AddGate("n1", logic.Nor, a, b)
	n2 := n.AddGate("n2", logic.Nor, c, d)
	f := n.AddGate("f", logic.Nand, n1, n2)
	n.MarkOutput(f)
	orig, _ := n.Clone()
	e := extract1(t, n)
	out, err := DeMorgan(n, e.Of(f))
	if err != nil {
		t.Fatal(err)
	}
	if out.Name() != "f" || !out.PO {
		t.Fatal("DeMorgan must preserve the interface name")
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if ce, err := sim.EquivalentExhaustive(orig, n); err != nil || ce != nil {
		t.Fatalf("DeMorgan changed function: %v %v", ce, err)
	}
	// The dualization is real: the old root must now be NOR.
	if n.FindGate("f_dm_0").Type != logic.Nor {
		t.Fatalf("root not dualized: %v", n.FindGate("f_dm_0").Type)
	}
}

func TestDeMorganRejectsXor(t *testing.T) {
	n := network.New("dmx")
	a, b := n.AddInput("a"), n.AddInput("b")
	f := n.AddGate("f", logic.Xor, a, b)
	n.MarkOutput(f)
	e := extract1(t, n)
	if _, err := DeMorgan(n, e.Of(f)); err == nil {
		t.Fatal("DeMorgan of an xor supergate must fail")
	}
}

func TestCrossSwapFig3(t *testing.T) {
	// Fig. 3's shape: parent NAND with two symmetric NAND children whose
	// fanin sets (a,b,c) and (d,e,g) exchange wholesale.
	n := network.New("fig3")
	var ins [6]*network.Gate
	for i, name := range []string{"a", "b", "c", "d", "e", "g"} {
		ins[i] = n.AddInput(name)
	}
	s1 := n.AddGate("s1", logic.Nand, ins[0], ins[1], ins[2])
	s2 := n.AddGate("s2", logic.Nand, ins[3], ins[4], ins[5])
	f := n.AddGate("f", logic.Nand, s1, s2)
	n.MarkOutput(s1) // extra fanout branches make s1/s2 separate roots
	n.MarkOutput(s2)
	n.MarkOutput(f)
	orig, _ := n.Clone()
	e := extract1(t, n)
	sg1, sg2 := e.Of(s1), e.Of(s2)
	if sg1 == sg2 || sg1 == e.Of(f) {
		t.Fatal("expected three separate supergates")
	}
	if err := CrossSwap(n, sg1, sg2); err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// The parent's function is preserved...
	outF := func(m *network.Network) *network.Gate { return m.FindGate("f") }
	ceF := false
	for idx := 0; idx < 64; idx++ {
		inVals := map[string]logic.Bit{}
		for i, name := range []string{"a", "b", "c", "d", "e", "g"} {
			inVals[name] = logic.Bit(idx >> i & 1)
		}
		a1 := sim.Eval(orig, inVals)[outF(orig).Name()]
		a2 := sim.Eval(n, inVals)[outF(n).Name()]
		if a1 != a2 {
			ceF = true
			break
		}
	}
	if ceF {
		t.Fatal("cross swap changed the parent function")
	}
	// ...while s1 itself now computes NAND(d,e,g).
	got := sim.Eval(n, map[string]logic.Bit{"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "g": 1})
	if got["s1"] != 0 {
		t.Fatal("s1 should now compute NAND(d,e,g)")
	}
}

func TestCrossSwapDualPair(t *testing.T) {
	// Theorem 2's interesting case: SG1 = NAND(a,b) and SG2 = NOR(c,d)
	// compute dual functions (opposite descriptors). Their outputs feed a
	// parent XOR — always non-inverting swappable (Lemma 8) — so the
	// fanin sets exchange after dualizing both gates.
	n := network.New("dual")
	a, b, c, d := n.AddInput("a"), n.AddInput("b"), n.AddInput("c"), n.AddInput("d")
	s1 := n.AddGate("s1", logic.Nand, a, b)
	s2 := n.AddGate("s2", logic.Nor, c, d)
	f := n.AddGate("f", logic.Xor, s1, s2)
	n.MarkOutput(f)
	orig, _ := n.Clone()
	e := extract1(t, n)
	sg1, sg2 := e.Of(s1), e.Of(s2)
	dualize, err := CrossSwapCompatible(sg1, sg2)
	if err != nil {
		t.Fatal(err)
	}
	if !dualize {
		t.Fatal("NAND/NOR pair should require dualization")
	}
	if err := CrossSwap(n, sg1, sg2); err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if s1.Type != logic.Nor || s2.Type != logic.Nand {
		t.Fatalf("gates not dualized: %v %v", s1.Type, s2.Type)
	}
	// The PO function is preserved (s1/s2 internal wires changed roles,
	// so compare only at f).
	for idx := 0; idx < 16; idx++ {
		inVals := map[string]logic.Bit{
			"a": logic.Bit(idx & 1), "b": logic.Bit(idx >> 1 & 1),
			"c": logic.Bit(idx >> 2 & 1), "d": logic.Bit(idx >> 3 & 1),
		}
		if sim.Eval(orig, inVals)["f"] != sim.Eval(n, inVals)["f"] {
			t.Fatalf("cross swap changed f under %v", inVals)
		}
	}
}

func TestCrossSwapDualPairUnderNandParent(t *testing.T) {
	// Same dual pair under a NAND parent: both parent pins have implied
	// value 1, hence NES-swappable outputs — the Theorem 2 precondition.
	n := network.New("dual2")
	a, b, c, d := n.AddInput("a"), n.AddInput("b"), n.AddInput("c"), n.AddInput("d")
	s1 := n.AddGate("s1", logic.Nand, a, b)
	s2 := n.AddGate("s2", logic.Inv, n.AddGate("or2", logic.Nor, c, d))
	// s2 = OR(c,d): descriptor RNC 1, imps (0,0)?? — extraction peels the
	// INV: NOR implies 1 at its out, pins at 0; prefix INV flips RNC to 0.
	f := n.AddGate("f", logic.Nand, s1, s2)
	n.MarkOutput(s1)
	n.MarkOutput(s2)
	n.MarkOutput(f)
	orig, _ := n.Clone()
	e := extract1(t, n)
	sg1, sg2 := e.Of(s1), e.Of(s2)
	// s1: NAND -> RNC 0, imps (1,1). s2: INV(NOR) -> RNC 0, imps (0,0):
	// equal RNC but flipped imps — NOT compatible (neither equal nor
	// opposite), so the swap must be rejected.
	if _, err := CrossSwapCompatible(sg1, sg2); err == nil {
		t.Fatal("half-opposite descriptors must be rejected")
	}
	_ = orig
	_ = f
}

func TestCrossSwapRejectsCountMismatch(t *testing.T) {
	n := network.New("cnt")
	a, b, c, d, e0 := n.AddInput("a"), n.AddInput("b"), n.AddInput("c"), n.AddInput("d"), n.AddInput("e")
	s1 := n.AddGate("s1", logic.Nand, a, b)
	s2 := n.AddGate("s2", logic.Nand, c, d, e0)
	f := n.AddGate("f", logic.Nand, s1, s2)
	n.MarkOutput(f)
	n.MarkOutput(s1)
	n.MarkOutput(s2)
	ex := extract1(t, n)
	if err := CrossSwap(n, ex.Of(s1), ex.Of(s2)); err == nil {
		t.Fatal("fanin count mismatch must be rejected")
	}
}

func TestDescCanonical(t *testing.T) {
	// Desc must capture the full function: NAND -> RNC 0 / imps 1;
	// INV(NAND) (= AND) -> RNC 1 / imps 1.
	n := network.New("desc")
	a, b := n.AddInput("a"), n.AddInput("b")
	g := n.AddGate("g", logic.Nand, a, b)
	f := n.AddGate("f", logic.Inv, g)
	n.MarkOutput(f)
	e := extract1(t, n)
	d, err := Desc(e.Of(f))
	if err != nil {
		t.Fatal(err)
	}
	if d.RNC != 1 || len(d.Imps) != 2 || d.Imps[0] != 1 || d.Imps[1] != 1 {
		t.Fatalf("AND descriptor wrong: %+v", d)
	}
}

// structure renders every live gate's fanin and fanout lists, order
// included, by gate ID.
func structure(n *network.Network) string {
	var b []byte
	n.Gates(func(g *network.Gate) {
		b = append(b, fmt.Sprintf("%d<%v>", g.ID(), g.Type)...)
		for _, f := range g.Fanins() {
			b = append(b, fmt.Sprintf(" i%d", f.ID())...)
		}
		for _, s := range g.Fanouts() {
			b = append(b, fmt.Sprintf(" o%d", s.ID())...)
		}
		b = append(b, '\n')
	})
	return string(b)
}

// Property: a random batch of inverting and non-inverting swaps, undone
// in reverse order, restores every gate's fanin and fanout lists exactly,
// order included — not just as multisets. The optimizer's rollback relies
// on it: the restored network must be the one its timing and scores
// describe, down to the order star-model sums visit the sinks.
func TestUndoRestoresExactStructure(t *testing.T) {
	lib := library.Default035()
	for _, name := range []string{"c1908", "s5378"} {
		n, err := gen.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		place.Place(n, lib, place.Options{Seed: 1, MovesPerCell: 5})
		rng := rand.New(rand.NewSource(int64(len(name))))
		inverting := 0
		for batch := 0; batch < 20; batch++ {
			nt := supergate.Extract(n).NonTrivial()
			want := structure(n)
			var undos []Undo
			for k := 1 + rng.Intn(40); k > 0; k-- {
				sg := nt[rng.Intn(len(nt))]
				if len(sg.Leaves) < 2 {
					continue
				}
				i, j := rng.Intn(len(sg.Leaves)), rng.Intn(len(sg.Leaves))
				nonInv, inv := Options(sg, i, j)
				if !nonInv && !inv {
					continue
				}
				s := Swap{SG: sg, I: i, J: j, Inverting: inv && (!nonInv || rng.Intn(2) == 0)}
				if s.Inverting {
					inverting++
				}
				undos = append(undos, Apply(n, s))
			}
			for i := len(undos) - 1; i >= 0; i-- {
				undos[i]()
			}
			if got := structure(n); got != want {
				t.Fatalf("%s batch %d: %d undone swaps left a different structure", name, batch, len(undos))
			}
		}
		if inverting == 0 {
			t.Fatalf("%s: no inverting swap exercised", name)
		}
	}
}
