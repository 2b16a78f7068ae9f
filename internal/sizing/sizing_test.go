package sizing

import (
	"math"
	"testing"

	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/sta"
)

func lib() *library.Library { return library.Default035() }

// fanoutHeavy builds a weak driver with a large fanout — the classic
// sizing win.
func fanoutHeavy() *network.Network {
	n := network.New("fh")
	a, b := n.AddInput("a"), n.AddInput("b")
	d := n.AddGate("d", logic.Nand, a, b)
	for i := 0; i < 10; i++ {
		s := n.AddGate(n.FreshName("s"), logic.Inv, d)
		n.MarkOutput(s)
	}
	return n
}

func TestEvalResizeFindsObviousWin(t *testing.T) {
	n := fanoutHeavy()
	l := lib()
	tm := sta.Analyze(n, l, 0)
	d := n.FindGate("d")
	gain := NewFrame(sta.NewScratch()).EvalResize(tm, d, library.NumSizes-1, MinSlack)
	if gain <= 0 {
		t.Fatalf("upsizing an overloaded driver should gain, got %v", gain)
	}
	// Local evaluation must leave the gate unchanged.
	if d.SizeIdx != 0 {
		t.Fatal("EvalResize mutated the gate")
	}
}

func TestEvalResizeTracksFullSTA(t *testing.T) {
	// The local gain and the full-STA delay change must agree in sign for
	// a single resize on a small circuit.
	n := fanoutHeavy()
	l := lib()
	tm := sta.Analyze(n, l, 0)
	d := n.FindGate("d")
	gain := NewFrame(sta.NewScratch()).EvalResize(tm, d, library.NumSizes-1, MinSlack)
	before := tm.CriticalDelay
	d.SizeIdx = library.NumSizes - 1
	after := sta.Analyze(n, l, tm.Clock).CriticalDelay
	d.SizeIdx = 0
	if (gain > 0) != (after < before) {
		t.Fatalf("local gain %v disagrees with full STA %v -> %v", gain, before, after)
	}
}

func TestBestResize(t *testing.T) {
	n := fanoutHeavy()
	l := lib()
	tm := sta.Analyze(n, l, 0)
	d := n.FindGate("d")
	best := NewFrame(sta.NewScratch()).BestResizes(tm, d)[MinSlack]
	if best.Size == 0 || best.Gain <= 0 {
		t.Fatalf("BestResizes missed the win: %+v", best)
	}
}

func TestScore(t *testing.T) {
	slacks := []float64{3, 1, 2}
	if got := Scores(slacks, 10)[MinSlack]; got != 1 {
		t.Fatalf("min score %v", got)
	}
	if got := Scores(slacks, 10)[SumSlack]; got != 6 {
		t.Fatalf("sum score %v", got)
	}
	// Clipping at clock.
	if got := Scores([]float64{100}, 10)[SumSlack]; got != 10 {
		t.Fatalf("clipped score %v", got)
	}
	if got := Scores(nil, 10)[MinSlack]; got != math.MaxFloat64 {
		t.Fatalf("empty min score %v", got)
	}
}
