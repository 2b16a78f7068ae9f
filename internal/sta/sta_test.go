package sta

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/place"
)

func lib() *library.Library { return library.Default035() }

// chain builds INV chains: a -> i1 -> i2 -> f(PO), unplaced.
func chain() *network.Network {
	n := network.New("chain")
	a := n.AddInput("a")
	i1 := n.AddGate("i1", logic.Inv, a)
	i2 := n.AddGate("i2", logic.Inv, i1)
	f := n.AddGate("f", logic.Inv, i2)
	n.MarkOutput(f)
	return n
}

func TestUnplacedChainArrival(t *testing.T) {
	n := chain()
	l := lib()
	tm := Analyze(n, l, 0)
	inv := l.MustCell(logic.Inv, 1, 0)
	// Without placement there is no wire delay; each stage adds the INV
	// delay at its pin-cap (or PO pad) load.
	loadMid := inv.InputCap
	loadPO := POLoadPF
	i1 := n.FindGate("i1")
	wantRise := inv.IntrinsicRise + inv.ResRise*loadMid
	if got := tm.Arrival(i1).Rise; math.Abs(got-wantRise) > 1e-12 {
		t.Fatalf("i1 rise arrival = %v want %v", got, wantRise)
	}
	f := n.FindGate("f")
	if tm.Load(f) != loadPO {
		t.Fatalf("PO load = %v want %v", tm.Load(f), loadPO)
	}
	if tm.CriticalDelay <= tm.Arrival(i1).Max() {
		t.Fatal("critical delay must exceed mid-chain arrival")
	}
}

func TestArrivalMonotoneAlongPaths(t *testing.T) {
	n, err := gen.Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	place.Place(n, lib(), place.Options{Seed: 1, MovesPerCell: 10})
	tm := Analyze(n, lib(), 0)
	n.Gates(func(g *network.Gate) {
		for _, d := range g.Fanins() {
			if tm.Arrival(g).Max() <= tm.Arrival(d).Max() {
				t.Errorf("arrival not monotone: %s (%v) after %s (%v)",
					g, tm.Arrival(g).Max(), d, tm.Arrival(d).Max())
			}
		}
	})
}

func TestZeroClockMakesWorstSlackZero(t *testing.T) {
	n, err := gen.Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	place.Place(n, lib(), place.Options{Seed: 1, MovesPerCell: 10})
	tm := Analyze(n, lib(), 0)
	ws := tm.WorstSlack()
	if math.Abs(ws) > 1e-9 {
		t.Fatalf("worst slack = %v, want 0 with clock = critical delay", ws)
	}
	if tm.Clock != tm.CriticalDelay {
		t.Fatal("clock should default to critical delay")
	}
}

func TestExplicitClockShiftsSlack(t *testing.T) {
	n := chain()
	tm0 := Analyze(n, lib(), 0)
	tm := Analyze(n, lib(), tm0.CriticalDelay+1.0)
	if got := tm.WorstSlack(); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("worst slack = %v want 1.0", got)
	}
}

func TestSlackDecomposition(t *testing.T) {
	// slack = required - arrival per edge; Slack() takes the min.
	n := chain()
	tm := Analyze(n, lib(), 0)
	g := n.FindGate("i1")
	a, r := tm.Arrival(g), tm.Required(g)
	want := math.Min(r.Rise-a.Rise, r.Fall-a.Fall)
	if tm.Slack(g) != want {
		t.Fatal("Slack() inconsistent with Arrival/Required")
	}
}

func TestInvertingEdgeSwap(t *testing.T) {
	// Through an inverter the rise arrival is driven by the input's fall.
	n := network.New("e")
	a := n.AddInput("a")
	i1 := n.AddGate("i1", logic.Inv, a)
	f := n.AddGate("f", logic.Inv, i1)
	n.MarkOutput(f)
	l := lib()
	tm := Analyze(n, l, 0)
	inv := l.MustCell(logic.Inv, 1, 0)
	// i1 rise = input fall (0) + rise delay; i1 fall = fall delay.
	r1, f1 := inv.Delay(tm.Load(i1))
	if math.Abs(tm.Arrival(i1).Rise-r1) > 1e-12 || math.Abs(tm.Arrival(i1).Fall-f1) > 1e-12 {
		t.Fatal("stage 1 edge delays wrong")
	}
	// f rise is caused by i1 fall.
	r2, f2 := inv.Delay(tm.Load(n.FindGate("f")))
	wantRise := f1 + r2
	wantFall := r1 + f2
	got := tm.Arrival(n.FindGate("f"))
	if math.Abs(got.Rise-wantRise) > 1e-12 || math.Abs(got.Fall-wantFall) > 1e-12 {
		t.Fatalf("edge chaining: got %+v want {%v %v}", got, wantRise, wantFall)
	}
}

func TestPlacementAddsWireDelay(t *testing.T) {
	n1 := chain()
	n2 := chain()
	tmUnplaced := Analyze(n1, lib(), 0)
	// Place the second copy far apart manually.
	x := 0.0
	n2.Gates(func(g *network.Gate) {
		g.X, g.Y, g.Placed = x, 0, true
		x += 2000 // 2 mm apart
	})
	tmPlaced := Analyze(n2, lib(), 0)
	if tmPlaced.CriticalDelay <= tmUnplaced.CriticalDelay {
		t.Fatalf("wire delay missing: placed %v <= unplaced %v",
			tmPlaced.CriticalDelay, tmUnplaced.CriticalDelay)
	}
	d := tmPlaced.WireDelay(n2.FindGate("i1"), n2.FindGate("i2"))
	if d <= 0 {
		t.Fatal("zero wire delay over 2 mm")
	}
}

func TestCriticalPath(t *testing.T) {
	n, err := gen.Generate("alu2")
	if err != nil {
		t.Fatal(err)
	}
	place.Place(n, lib(), place.Options{Seed: 2, MovesPerCell: 10})
	tm := Analyze(n, lib(), 0)
	path := tm.CriticalPath()
	if len(path) < 2 {
		t.Fatalf("degenerate critical path: %v", path)
	}
	if !path[0].IsInput() {
		t.Error("critical path should start at a PI")
	}
	last := path[len(path)-1]
	if !last.PO {
		t.Error("critical path should end at a PO")
	}
	if math.Abs(tm.Arrival(last).Max()-tm.CriticalDelay) > 1e-9 {
		t.Error("critical path endpoint is not the worst PO")
	}
	// Arrivals strictly increase along the path.
	for i := 1; i < len(path); i++ {
		if tm.Arrival(path[i]).Max() <= tm.Arrival(path[i-1]).Max() {
			t.Fatal("critical path arrivals not increasing")
		}
	}
}

func TestUpsizingCriticalDriverHelps(t *testing.T) {
	// A weak driver with a huge fanout load: upsizing it must reduce the
	// critical delay.
	n := network.New("drive")
	a := n.AddInput("a")
	b := n.AddInput("b")
	d := n.AddGate("d", logic.Nand, a, b)
	for i := 0; i < 12; i++ {
		s := n.AddGate(n.FreshName("s"), logic.Inv, d)
		n.MarkOutput(s)
	}
	before := Analyze(n, lib(), 0).CriticalDelay
	d.SizeIdx = library.NumSizes - 1
	after := Analyze(n, lib(), 0).CriticalDelay
	if after >= before {
		t.Fatalf("upsizing did not help: %v -> %v", before, after)
	}
}

func TestComputeNetHypothetical(t *testing.T) {
	n := chain()
	x := 0.0
	n.Gates(func(g *network.Gate) {
		g.X, g.Y, g.Placed = x, 0, true
		x += 100
	})
	tm := Analyze(n, lib(), 0)
	i1, i2, f := n.FindGate("i1"), n.FindGate("i2"), n.FindGate("f")
	// Hypothetically drive f directly from i1 (skipping i2): the sink
	// moves farther away, so wire delay grows.
	cur := tm.ComputeNet(i1, []*network.Gate{i2})
	hyp := tm.ComputeNet(i1, []*network.Gate{f})
	if hyp.SinkDelay[f] <= cur.SinkDelay[i2] {
		t.Fatal("farther hypothetical sink should be slower")
	}
	// The committed analysis is untouched.
	if tm.WireDelay(i1, i2) != cur.SinkDelay[i2] {
		t.Fatal("ComputeNet disturbed committed results")
	}
}

func TestComputeNetMixedPlacement(t *testing.T) {
	// If any terminal of a hypothetical net is unplaced, the model falls
	// back to pin capacitances only (no wire parasitics).
	n := network.New("mixed")
	a := n.AddInput("a")
	s1 := n.AddGate("s1", logic.Inv, a)
	s2 := n.AddGate("s2", logic.Inv, a)
	n.MarkOutput(s1)
	n.MarkOutput(s2)
	a.X, a.Y, a.Placed = 0, 0, true
	s1.X, s1.Y, s1.Placed = 500, 0, true
	// s2 stays unplaced.
	l := lib()
	tm := Analyze(n, l, 0)
	info := tm.ComputeNet(a, []*network.Gate{s1, s2})
	wantCap := 2 * l.MustCell(logic.Inv, 1, 0).InputCap
	if math.Abs(info.Load-wantCap) > 1e-12 {
		t.Fatalf("mixed-placement load %v, want pin caps only %v", info.Load, wantCap)
	}
	if info.SinkDelay[s1] != 0 || info.SinkDelay[s2] != 0 {
		t.Fatal("unplaced nets must have zero wire delay")
	}
}

func TestXorNonUnateEdges(t *testing.T) {
	// Through an XOR, either input edge can cause either output edge, so
	// both output edges see the worst input time.
	n := network.New("xu")
	a, b := n.AddInput("a"), n.AddInput("b")
	slow := n.AddGate("slow", logic.Inv, a) // asymmetric rise/fall arrival
	f := n.AddGate("f", logic.Xor, slow, b)
	n.MarkOutput(f)
	l := lib()
	tm := Analyze(n, l, 0)
	worstIn := tm.Arrival(slow).Max()
	cell := l.MustCell(logic.Xor, 2, 0)
	r, fl := cell.Delay(tm.Load(f))
	arr := tm.Arrival(f)
	if math.Abs(arr.Rise-(worstIn+r)) > 1e-12 || math.Abs(arr.Fall-(worstIn+fl)) > 1e-12 {
		t.Fatalf("XOR edges: got %+v want rise %v fall %v", arr, worstIn+r, worstIn+fl)
	}
}

func TestRequiredUnreachableGateIsInfinite(t *testing.T) {
	// A gate feeding no PO keeps an infinite required time (its slack
	// never constrains anything).
	n := network.New("dead")
	a := n.AddInput("a")
	f := n.AddGate("f", logic.Inv, a)
	n.MarkOutput(f)
	// Dangling side gate (kept alive by being... it would be swept in a
	// real flow; STA must still tolerate it).
	n.AddGate("side", logic.Inv, a)
	tm := Analyze(n, lib(), 0)
	side := n.FindGate("side")
	if tm.Required(side).Min() < 1e30 {
		t.Fatalf("dead gate required = %+v, want +inf", tm.Required(side))
	}
}
