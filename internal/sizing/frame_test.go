package sizing

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/place"
	"repro/internal/sta"
)

// checkFrame compares the frame against the oracle for every logic gate
// of tm's network under both objectives: BestResizes' (size, gain) and
// EvalResize at every size must match bit for bit.
func checkFrame(t testing.TB, tm *sta.Timing) {
	t.Helper()
	sc, osc := sta.NewScratch(), sta.NewScratch()
	f := NewFrame(sc)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	tm.Network().Gates(func(g *network.Gate) {
		if g.IsInput() {
			return
		}
		best := f.BestResizes(tm, g)
		for _, obj := range []Objective{MinSlack, SumSlack} {
			size, gain := best[obj].Size, best[obj].Gain
			wantSize, wantGain := oracleBestResize(tm, g, obj, osc)
			if size != wantSize || !same(gain, wantGain) {
				t.Fatalf("%s obj %d: BestResizes = (%d, %v), oracle (%d, %v)", g.Name(), obj, size, gain, wantSize, wantGain)
			}
			for s := 0; s < library.NumSizes; s++ {
				got, want := f.EvalResize(tm, g, s, obj), oracleEvalResize(tm, g, s, obj, osc)
				if !same(got, want) {
					t.Fatalf("%s obj %d size %d: EvalResize = %v, oracle %v", g.Name(), obj, s, got, want)
				}
			}
		}
	})
}

func frameProfile(seed int64) gen.Profile {
	return gen.Profile{
		Name: fmt.Sprintf("frame%d", seed), Seed: seed,
		NumPI: 16, TargetGates: 200,
		XorFrac: 0.1, NorFrac: 0.4, InvFrac: 0.12,
		Locality: 0.5, MaxFanin: 4,
	}
}

func TestFrameMatchesOracleOnSeededCircuits(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		n := gen.FromProfile(frameProfile(seed))
		place.Place(n, lib(), place.Options{Seed: seed, MovesPerCell: 5})
		SeedForLoad(n, lib(), 0)
		checkFrame(t, sta.Analyze(n, lib(), 0))
	}
	n, err := gen.Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	place.Place(n, lib(), place.Options{Seed: 1, MovesPerCell: 5})
	SeedForLoad(n, lib(), 0)
	checkFrame(t, sta.Analyze(n, lib(), 0))
}

// spread places every gate of n on a diagonal so wires are long enough
// for pin capacitance to matter.
func spread(n *network.Network) {
	x := 0.0
	n.Gates(func(g *network.Gate) {
		g.X, g.Y, g.Placed = x, x/2, true
		x += 150
	})
}

func TestFrameCraftedCases(t *testing.T) {
	t.Run("fed twice by one driver", func(t *testing.T) {
		n := network.New("twice")
		a, b := n.AddInput("a"), n.AddInput("b")
		d := n.AddGate("d", logic.Nand, a, b)
		g := n.AddGate("g", logic.Nand, d, d, a)
		n.MarkOutput(g)
		n.MarkOutput(n.AddGate("s", logic.Inv, d))
		spread(n)
		checkFrame(t, sta.Analyze(n, lib(), 0))
	})
	t.Run("driver feeds a later driver", func(t *testing.T) {
		// g's drivers are d1 then d2 with d1 -> d2; h lists them the
		// other way round, so d1 is dynamic for d2 only in g's frame.
		n := network.New("chain")
		a, b, c := n.AddInput("a"), n.AddInput("b"), n.AddInput("c")
		d1 := n.AddGate("d1", logic.Nand, a, b)
		d2 := n.AddGate("d2", logic.Nor, d1, c)
		g := n.AddGate("g", logic.Nand, d1, d2)
		h := n.AddGate("h", logic.Xor, d2, d1)
		n.MarkOutput(g)
		n.MarkOutput(h)
		spread(n)
		checkFrame(t, sta.Analyze(n, lib(), 0))
	})
	t.Run("hood gate with two pins on one driver", func(t *testing.T) {
		// h is a sink of g's driver d through two pins, so d's net lists
		// it twice and both of its dynamic pins read d's new arrival.
		n := network.New("hoodtwice")
		a, b := n.AddInput("a"), n.AddInput("b")
		d := n.AddGate("d", logic.Nor, a, b)
		g := n.AddGate("g", logic.Nand, d, b)
		h := n.AddGate("h", logic.Nand, d, a, d)
		n.MarkOutput(g)
		n.MarkOutput(n.AddGate("s", logic.Xor, h, d))
		spread(n)
		checkFrame(t, sta.Analyze(n, lib(), 0))
	})
	t.Run("driver feeds the resized gate twice and a later driver", func(t *testing.T) {
		// d1 feeds g through two pins (two capacitance entries a size
		// patches) and feeds g's later driver d2, whose pin from d1 is
		// dynamic.
		n := network.New("gtwice")
		a, b, c := n.AddInput("a"), n.AddInput("b"), n.AddInput("c")
		d1 := n.AddGate("d1", logic.Nand, a, b)
		d2 := n.AddGate("d2", logic.Xnor, d1, c)
		g := n.AddGate("g", logic.Nor, d1, d2, d1)
		n.MarkOutput(g)
		n.MarkOutput(n.AddGate("h", logic.Nand, d2, d1, d1))
		spread(n)
		checkFrame(t, sta.Analyze(n, lib(), 0))
	})
	t.Run("primary-input drivers and PO pads", func(t *testing.T) {
		n := network.New("pads")
		a, b := n.AddInput("a"), n.AddInput("b")
		d := n.AddGate("d", logic.Nor, a, b)
		n.MarkOutput(d) // a driver with a pad load
		g := n.AddGate("g", logic.Nand, a, d, b)
		n.MarkOutput(g)
		spread(n)
		checkFrame(t, sta.Analyze(n, lib(), 0))
	})
	t.Run("pinned bounds", func(t *testing.T) {
		n := network.New("bounded")
		a, b, c := n.AddInput("a"), n.AddInput("b"), n.AddInput("c")
		d1 := n.AddGate("d1", logic.Nand, a, b)
		d2 := n.AddGate("d2", logic.Xnor, d1, c)
		g := n.AddGate("g", logic.Nor, d1, d2, a)
		n.MarkOutput(g)
		n.MarkOutput(d2)
		spread(n)
		bd := &sta.Bounds{
			PIArrival:  map[*network.Gate]sta.Edge{a: {Rise: 0.4, Fall: 0.3}, c: {Rise: 0.1, Fall: 0.2}},
			PORequired: map[*network.Gate]sta.Edge{d2: {Rise: 0.5, Fall: 0.6}},
			POLoad:     map[*network.Gate]float64{g: 0.02, d2: -0.01},
		}
		checkFrame(t, sta.AnalyzeBounded(n, lib(), 2, bd))
	})
	t.Run("gate created after the analysis", func(t *testing.T) {
		n := network.New("late")
		a, b := n.AddInput("a"), n.AddInput("b")
		d := n.AddGate("d", logic.Nand, a, b)
		g := n.AddGate("g", logic.Inv, d)
		n.MarkOutput(g)
		spread(n)
		tm := sta.Analyze(n, lib(), 0)
		late := n.AddGate("late", logic.Nor, d, g)
		late.X, late.Y, late.Placed = 90, 40, true
		n.MarkOutput(late)
		checkFrame(t, tm)
	})
}

// TestFrameSteadyStateAllocs pins the per-worker contract: once a frame
// and its scratch have grown, scoring every site allocates nothing.
func TestFrameSteadyStateAllocs(t *testing.T) {
	n := gen.FromProfile(frameProfile(4))
	place.Place(n, lib(), place.Options{Seed: 4, MovesPerCell: 5})
	tm := sta.Analyze(n, lib(), 0)
	f := NewFrame(sta.NewScratch())
	var sites []*network.Gate
	n.Gates(func(g *network.Gate) {
		if !g.IsInput() {
			sites = append(sites, g)
		}
	})
	run := func() {
		for _, g := range sites {
			f.BestResizes(tm, g)
			f.EvalResize(tm, g, library.NumSizes-1, MinSlack)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("steady-state frame scoring allocates %v times per pass", allocs)
	}
}

// fuzzReader hands out fuzz bytes, then zeros once they run out.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) next() int {
	if r.pos >= len(r.data) {
		return 0
	}
	r.pos++
	return int(r.data[r.pos-1])
}

var fuzzTypes = []logic.GateType{logic.Inv, logic.Buf, logic.Nand, logic.Nor, logic.Xor, logic.Xnor}

// fuzzDAG builds a small placed, sized DAG from the fuzz bytes: fanins
// pick any earlier gate (repeats allowed), every sink-less gate is a
// primary output, and a flag byte pins boundary conditions. It returns
// the (possibly bounded) timing; when another flag byte asks, one more
// gate is added to the network after the analysis.
func fuzzDAG(data []byte) *sta.Timing {
	r := &fuzzReader{data: data}
	n := network.New("fuzz")
	var all []*network.Gate
	for i, npi := 0, 1+r.next()%4; i < npi; i++ {
		all = append(all, n.AddInput(fmt.Sprintf("i%d", i)))
	}
	addGate := func(name string) *network.Gate {
		typ := fuzzTypes[r.next()%len(fuzzTypes)]
		k := 1
		if !typ.IsUnary() {
			k = 2 + r.next()%(library.MaxFanin-1)
		}
		fanins := make([]*network.Gate, k)
		for j := range fanins {
			fanins[j] = all[r.next()%len(all)]
		}
		g := n.AddGate(name, typ, fanins...)
		g.SizeIdx = r.next() % library.NumSizes
		return g
	}
	for i, ng := 0, 1+r.next()%24; i < ng; i++ {
		all = append(all, addGate(fmt.Sprintf("g%d", i)))
	}
	unplaced := r.next() % 8 // 0 leaves one gate unplaced (zero-wire nets)
	for i, g := range all {
		g.X, g.Y, g.Placed = float64(r.next()*7), float64(r.next()*5), unplaced != 0 || i != len(all)-1
		if !g.IsInput() && (g.NumFanouts() == 0 || r.next()%5 == 0) {
			n.MarkOutput(g)
		}
	}
	var bd *sta.Bounds
	if r.next()%2 == 1 {
		bd = &sta.Bounds{
			PIArrival:  map[*network.Gate]sta.Edge{},
			PORequired: map[*network.Gate]sta.Edge{},
			POLoad:     map[*network.Gate]float64{},
		}
		for _, g := range all {
			switch {
			case g.IsInput():
				bd.PIArrival[g] = sta.Edge{Rise: float64(r.next()) / 100, Fall: float64(r.next()) / 100}
			case g.PO:
				bd.PORequired[g] = sta.Edge{Rise: float64(r.next()) / 50, Fall: float64(r.next()) / 50}
				bd.POLoad[g] = float64(r.next()%16-4) / 1000
			}
		}
	}
	clock := float64(r.next()) / 40
	tm := sta.AnalyzeBounded(n, lib(), clock, bd)
	if r.next()%4 == 0 {
		g := addGate("late")
		g.X, g.Y, g.Placed = float64(r.next()*7), float64(r.next()*5), true
		n.MarkOutput(g)
	}
	return tm
}

func FuzzResizeFrame(f *testing.F) {
	f.Add([]byte{2, 5, 2, 0, 1, 0, 3, 0, 1, 2, 1, 2, 3, 1})
	f.Add([]byte{3, 9, 2, 1, 0, 1, 1, 3, 2, 1, 3, 0, 4, 0, 2, 4, 2, 5, 4, 0, 3, 4, 0, 1, 1, 50, 60, 70, 80, 90})
	f.Add([]byte{1, 12, 3, 2, 0, 0, 2, 0, 0, 1, 1, 0, 1, 2, 5, 0, 2, 1, 3, 4, 7, 1, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 1, 200, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFrame(t, fuzzDAG(data))
	})
}
