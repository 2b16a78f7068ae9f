package opt

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/place"
	"repro/internal/rewire"
	"repro/internal/sim"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/supergate"
)

func lib() *library.Library { return library.Default035() }

// swapWin builds a circuit where a far-away critical input can be swapped
// with a near non-critical one inside a NAND supergate: f = NAND(slow, x, y)
// with the slow signal arriving late and wired to the far pin of a deep
// tree.
func swapWin() *network.Network {
	n := network.New("sw")
	// A long inverter chain makes "slow" late.
	src := n.AddInput("src")
	cur := src
	for i := 0; i < 6; i++ {
		cur = n.AddGate(n.FreshName("c"), logic.Inv, cur)
	}
	slow := cur
	x := n.AddInput("x")
	y := n.AddInput("y")
	// Deep NAND/NOR tree: slow buried at depth 2, x at depth 1.
	inner := n.AddGate("inner", logic.Nor, slow, y)
	f := n.AddGate("f", logic.Nand, inner, x)
	n.MarkOutput(f)
	return n
}

func placeIt(n *network.Network) {
	place.Place(n, lib(), place.Options{Seed: 3, MovesPerCell: 10})
}

func prepBench(t *testing.T, name string) *network.Network {
	t.Helper()
	n, err := gen.Generate(name)
	if err != nil {
		t.Fatal(err)
	}
	placeIt(n)
	return n
}

func TestStrategyString(t *testing.T) {
	if Gsg.String() != "gsg" || GS.String() != "GS" || GsgGS.String() != "gsg+GS" {
		t.Fatal("strategy names")
	}
}

func TestEvalSwapAgreesWithSTAOnToyCase(t *testing.T) {
	n := swapWin()
	l := lib()
	// Stretch placement so wire lengths matter: put the slow chain far.
	x := 0.0
	n.Gates(func(g *network.Gate) {
		g.X, g.Y, g.Placed = x, 0, true
		x += 300
	})
	tm := sta.Analyze(n, l, 0)
	e := supergate.Extract(n)
	f := n.FindGate("f")
	sg := e.Of(f)
	if sg.Trivial() {
		t.Fatal("expected non-trivial supergate")
	}
	best := bestSwaps(tm, sg, &workerState{sc: sta.NewScratch()})[sizing.MinSlack]
	if best.gain <= 0 {
		t.Skip("no locally profitable swap in this placement; toy layout")
	}
	before := tm.CriticalDelay
	applySwap(n, rewire.Swap{SG: sg, I: int(best.a), J: int(best.b), Inverting: best.inv})
	after := sta.Analyze(n, l, tm.Clock).CriticalDelay
	if after > before+1e-9 {
		t.Fatalf("best swap worsened delay: %v -> %v", before, after)
	}
}

func TestGsgNeverMovesCellsAndPreservesFunction(t *testing.T) {
	n := prepBench(t, "alu2")
	l := lib()
	orig, _ := n.Clone()
	locs := place.Snapshot(n)
	sizes := map[string]int{}
	n.Gates(func(g *network.Gate) { sizes[g.Name()] = g.SizeIdx })

	res := Optimize(context.Background(), n, l, Gsg, Options{MaxIters: 3})
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.FinalDelay > res.InitialDelay+1e-9 {
		t.Fatalf("gsg worsened delay: %v -> %v", res.InitialDelay, res.FinalDelay)
	}
	if ce, err := sim.EquivalentRandom(orig, n, 16, 5); err != nil || ce != nil {
		t.Fatalf("gsg changed function: %v %v", ce, err)
	}
	// The paper's invariant: placement intact, and gsg never resizes.
	if name, same := place.SameLocations(locs, place.Snapshot(n)); !same {
		t.Fatalf("gsg moved cell %s", name)
	}
	n.Gates(func(g *network.Gate) {
		if old, ok := sizes[g.Name()]; ok && old != g.SizeIdx {
			t.Fatalf("gsg resized gate %s", g.Name())
		}
	})
	if res.Resizes != 0 {
		t.Fatal("gsg recorded resizes")
	}
}

func TestGSStrategyMatchesSizingPackageBehavior(t *testing.T) {
	n := prepBench(t, "c432")
	l := lib()
	orig, _ := n.Clone()
	res := Optimize(context.Background(), n, l, GS, Options{MaxIters: 3})
	if res.Swaps != 0 {
		t.Fatal("GS performed swaps")
	}
	if res.FinalDelay > res.InitialDelay+1e-9 {
		t.Fatalf("GS worsened delay: %v -> %v", res.InitialDelay, res.FinalDelay)
	}
	if res.ImprovementPct() <= 0 {
		t.Fatalf("GS improved nothing: %+v", res)
	}
	if ce, err := sim.EquivalentRandom(orig, n, 16, 5); err != nil || ce != nil {
		t.Fatalf("GS changed function: %v %v", ce, err)
	}
}

func TestGsgGSCombines(t *testing.T) {
	n := prepBench(t, "alu2")
	l := lib()
	orig, _ := n.Clone()
	locs := place.Snapshot(n)
	res := Optimize(context.Background(), n, l, GsgGS, Options{MaxIters: 3})
	if res.FinalDelay > res.InitialDelay+1e-9 {
		t.Fatalf("gsg+GS worsened delay: %v -> %v", res.InitialDelay, res.FinalDelay)
	}
	if res.ImprovementPct() <= 0 {
		t.Fatalf("gsg+GS improved nothing: %+v", res)
	}
	if ce, err := sim.EquivalentRandom(orig, n, 16, 5); err != nil || ce != nil {
		t.Fatalf("gsg+GS changed function: %v %v", ce, err)
	}
	if name, same := place.SameLocations(locs, place.Snapshot(n)); !same {
		t.Fatalf("gsg+GS moved cell %s", name)
	}
	// Stats columns populated.
	if res.Coverage <= 0 || res.MaxLeaves < 2 {
		t.Fatalf("extraction stats missing: %+v", res)
	}
}

func TestSizableFilterPerStrategy(t *testing.T) {
	// gsg+GS may size only gates covered by trivial supergates; GS may
	// size everything. (Membership is re-extracted every phase, so the
	// end-to-end property is enforced per phase by this filter.)
	n := prepBench(t, "alu2")
	ext := supergate.Extract(n)
	all := sizableFilter(GS, ext)
	restricted := sizableFilter(GsgGS, ext)
	nonTrivialGates, trivialGates := 0, 0
	for _, sg := range ext.Supergates {
		for _, g := range sg.Gates {
			if !all(g) {
				t.Fatalf("GS filter rejected %s", g.Name())
			}
			if sg.Trivial() {
				trivialGates++
				if !restricted(g) {
					t.Fatalf("gsg+GS filter rejected trivial-supergate gate %s", g.Name())
				}
			} else {
				nonTrivialGates++
				if restricted(g) {
					t.Fatalf("gsg+GS filter accepted non-trivial-supergate gate %s", g.Name())
				}
			}
		}
	}
	if nonTrivialGates == 0 || trivialGates == 0 {
		t.Fatal("degenerate extraction")
	}
}

func TestResultPercentages(t *testing.T) {
	r := Result{InitialDelay: 10, FinalDelay: 9, InitialArea: 200, FinalArea: 196}
	if got := r.ImprovementPct(); got != 10 {
		t.Fatalf("improvement %v", got)
	}
	if got := r.AreaDeltaPct(); got != -2 {
		t.Fatalf("area delta %v", got)
	}
	zero := Result{}
	if zero.ImprovementPct() != 0 || zero.AreaDeltaPct() != 0 {
		t.Fatal("zero-division guards")
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	run := func() (float64, int, int) {
		n := prepBench(t, "c432")
		r := Optimize(context.Background(), n, lib(), GsgGS, Options{MaxIters: 2})
		return r.FinalDelay, r.Swaps, r.Resizes
	}
	d1, s1, r1 := run()
	d2, s2, r2 := run()
	if d1 != d2 || s1 != s2 || r1 != r2 {
		t.Fatalf("nondeterministic: (%v,%d,%d) vs (%v,%d,%d)", d1, s1, r1, d2, s2, r2)
	}
}

func TestSwapOneSink(t *testing.T) {
	n := network.New("s")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	got, at := swapOneSink(nil, []*network.Gate{a, b, a}, a, c)
	if got[0] != c || got[1] != b || got[2] != a {
		t.Fatal("swapOneSink must replace exactly one occurrence")
	}
	if at != 0 {
		t.Fatalf("swapOneSink replaced entry %d, reported %d", 0, at)
	}
}

func TestCriticalityPredicates(t *testing.T) {
	n := network.New("crit")
	a, b := n.AddInput("a"), n.AddInput("b")
	g := n.AddGate("g", logic.Nand, a, b)
	s := n.AddGate("s", logic.Inv, g)
	n.MarkOutput(s)
	e := supergate.Extract(n)
	sg := e.Of(s)

	only := func(x *network.Gate) []bool {
		crit := make([]bool, n.IDBound())
		if x != nil {
			crit[x.ID()] = true
		}
		return crit
	}
	if !supergateCritical(sg, only(s)) {
		t.Fatal("supergate containing s should be critical")
	}
	if supergateCritical(sg, only(nil)) {
		t.Fatal("nothing critical yet supergate flagged")
	}
	// A resize of s touches g (fanin driver): criticality through the
	// neighborhood.
	if !neighborhoodCritical(s, only(g)) {
		t.Fatal("s's neighborhood includes its driver g")
	}
	if neighborhoodCritical(a, only(g)) {
		t.Fatal("a PI with no fanins should only be critical via itself")
	}
}

func TestEvalSwapSameDriverIsZero(t *testing.T) {
	// Two pins fed by the same driver: the exchange is a no-op and must
	// score zero.
	n := network.New("same")
	a, b := n.AddInput("a"), n.AddInput("b")
	d := n.AddGate("d", logic.Nor, a, b)
	f := n.AddGate("f", logic.Nand, d, d)
	n.MarkOutput(f)
	l := lib()
	tm := sta.Analyze(n, l, 0)
	e := supergate.Extract(n)
	sg := e.Of(f)
	if got := EvalSwapScratch(tm, rewireSwap(sg, 0, 1, false), sta.NewScratch())[sizing.MinSlack]; got != 0 {
		t.Fatalf("same-driver swap scored %v", got)
	}
}

func TestEvalSwapInvertingPenalty(t *testing.T) {
	// For the same pin pair, the inverting variant must never score
	// better than the non-inverting one (it adds inverter delay).
	n := prepBench(t, "c432")
	l := lib()
	tm := sta.Analyze(n, l, 0)
	e := supergate.Extract(n)
	sc := sta.NewScratch()
	checked := 0
	for _, sg := range e.NonTrivial() {
		for i := 0; i < len(sg.Leaves) && checked < 50; i++ {
			for j := i + 1; j < len(sg.Leaves) && checked < 50; j++ {
				plain := EvalSwapScratch(tm, rewireSwap(sg, i, j, false), sc)[sizing.MinSlack]
				inv := EvalSwapScratch(tm, rewireSwap(sg, i, j, true), sc)[sizing.MinSlack]
				if inv > plain+1e-9 {
					t.Fatalf("inverting swap scored better: %v > %v", inv, plain)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no pairs evaluated")
	}
}

func rewireSwap(sg *supergate.Supergate, i, j int, inverting bool) rewire.Swap {
	return rewire.Swap{SG: sg, I: i, J: j, Inverting: inverting}
}

func TestOptimizeUsesIncrementalTimer(t *testing.T) {
	n := prepBench(t, "c432")
	r := Optimize(context.Background(), n, lib(), GsgGS, Options{MaxIters: 4})
	if r.Timer.IncrementalUpdates == 0 {
		t.Fatalf("optimizer never used the incremental timer: %+v", r.Timer)
	}
	// Budget: one full analysis to seed the timer, at most one threshold
	// fallback per outer iteration; everything else must be incremental.
	if r.Timer.FullAnalyses > 1+r.Iterations {
		t.Fatalf("too many full analyses: %d for %d iterations (%+v)",
			r.Timer.FullAnalyses, r.Iterations, r.Timer)
	}
}

// TestRollbackRetryDoesNotRescore pins the rollback path's cost: a phase
// whose batch regresses retries from the ranking it already scored, so
// every reported phase is exactly one scoring pass of the engine.
func TestRollbackRetryDoesNotRescore(t *testing.T) {
	for _, name := range []string{"alu2", "s5378"} {
		n := prepBench(t, name)
		sizing.SeedForLoad(n, lib(), 0)
		phases, retried := 0, 0
		res := Optimize(context.Background(), n, lib(), GsgGS, Options{Progress: func(pr PhaseReport) {
			if pr.Phase == "start" {
				return
			}
			phases++
			if pr.Retried {
				retried++
			}
		}})
		if retried == 0 {
			t.Fatalf("%s: no phase rolled back; the test needs a rollback to exercise the retry", name)
		}
		if res.Evals.Phases != phases {
			t.Fatalf("%s: engine scored %d phases for %d reported phases (%d retried)", name, res.Evals.Phases, phases, retried)
		}
		t.Logf("%s: %d phases, %d retried", name, phases, retried)
	}
}
