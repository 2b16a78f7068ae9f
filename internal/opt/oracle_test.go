package opt

// The swap-scoring oracle: the per-pin evaluator that re-derives both
// drivers' arrivals from their fanins and looks every neighborhood pin's
// hypothetical driver up, scanning the rebuilt nets for its wire delay.
// EvalSwapScratch and bestSwaps must match it bit for bit.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/rewire"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/supergate"
)

// oracleEvalSwap returns the gains of swap s under each objective,
// evaluated pin by pin against tm through the arena sc.
func oracleEvalSwap(tm *sta.Timing, s rewire.Swap, sc *sta.Scratch) [2]float64 {
	pa := s.SG.Leaves[s.I].Pin
	pb := s.SG.Leaves[s.J].Pin
	ka, kb := pa.Driver(), pb.Driver()
	if ka == kb {
		return [2]float64{}
	}
	sc.Begin(tm)
	sc.SinksA, _ = swapOneSink(sc.SinksA[:0], ka.Fanouts(), pa.Gate, pb.Gate)
	sc.SinksB, _ = swapOneSink(sc.SinksB[:0], kb.Fanouts(), pb.Gate, pa.Gate)
	netA := sc.Net(tm, ka, sc.SinksA)
	netB := sc.Net(tm, kb, sc.SinksB)
	arrOf := func(k *network.Gate, load float64) sta.Edge {
		if k.IsInput() {
			return sta.Edge{}
		}
		sc.Pins = sc.Pins[:0]
		for j, d := range k.Fanins() {
			a := tm.Arrival(d)
			w := tm.PinWireDelay(d, k, j)
			sc.Pins = append(sc.Pins, sta.Edge{Rise: a.Rise + w, Fall: a.Fall + w})
		}
		return tm.GateOutput(k, sc.Pins, load)
	}
	arrA := arrOf(ka, netA.Load)
	arrB := arrOf(kb, netB.Load)

	sc.MarkSeen(ka)
	sc.MarkSeen(kb)
	sc.Hood = sc.Hood[:0]
	for _, t := range sc.SinksA {
		if sc.MarkSeen(t) {
			sc.Hood = append(sc.Hood, t)
		}
	}
	for _, t := range sc.SinksB {
		if sc.MarkSeen(t) {
			sc.Hood = append(sc.Hood, t)
		}
	}
	invPenalty := 0.0
	if s.Inverting {
		invPenalty = invDelayEstimatePenalty
	}
	slackOf := func(x *network.Gate, arr sta.Edge) float64 {
		r := tm.Required(x)
		return math.Min(r.Rise-arr.Rise, r.Fall-arr.Fall)
	}
	sc.Slacks = sc.Slacks[:0]
	if !ka.IsInput() {
		sc.Slacks = append(sc.Slacks, slackOf(ka, arrA))
	}
	if !kb.IsInput() {
		sc.Slacks = append(sc.Slacks, slackOf(kb, arrB))
	}
	for _, t := range sc.Hood {
		sc.Pins = sc.Pins[:0]
		for i, d := range t.Fanins() {
			cur := network.Pin{Gate: t, Index: i}
			switch {
			case cur == pa:
				d = kb
			case cur == pb:
				d = ka
			}
			var a sta.Edge
			var w float64
			switch d {
			case ka:
				a, w = arrA, netA.SinkDelay(sc.SinksA, t)
			case kb:
				a, w = arrB, netB.SinkDelay(sc.SinksB, t)
			default:
				a, w = tm.Arrival(d), tm.PinWireDelay(d, t, i)
			}
			pen := 0.0
			if cur == pa || cur == pb {
				pen = invPenalty
			}
			sc.Pins = append(sc.Pins, sta.Edge{Rise: a.Rise + w + pen, Fall: a.Fall + w + pen})
		}
		sc.Slacks = append(sc.Slacks, slackOf(t, tm.GateOutput(t, sc.Pins, tm.Load(t))))
	}

	sc.Before = sc.Before[:0]
	if !ka.IsInput() {
		sc.Before = append(sc.Before, tm.Slack(ka))
	}
	if !kb.IsInput() {
		sc.Before = append(sc.Before, tm.Slack(kb))
	}
	for _, t := range sc.Hood {
		sc.Before = append(sc.Before, tm.Slack(t))
	}
	after, before := sizing.Scores(sc.Slacks, tm.Clock), sizing.Scores(sc.Before, tm.Clock)
	return [2]float64{after[0] - before[0], after[1] - before[1]}
}

// checkSwaps compares EvalSwapScratch with the oracle on every legal swap
// of every supergate of tm's network as it stands, both gains bit for
// bit, and bestSwaps with the oracle's best swap of the supergate. It
// returns the number of swaps checked.
func checkSwaps(t testing.TB, tm *sta.Timing) int {
	t.Helper()
	ws := &workerState{sc: sta.NewScratch()}
	osc := sta.NewScratch()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	checked := 0
	for _, sg := range supergate.Extract(tm.Network()).Supergates {
		var want [2]siteMove
		for _, s := range rewire.Enumerate(sg) {
			got, exp := EvalSwapScratch(tm, s, ws.sc), oracleEvalSwap(tm, s, osc)
			for obj := range exp {
				if !same(got[obj], exp[obj]) {
					t.Fatalf("%v obj %d: EvalSwapScratch = %v, oracle %v", s, obj, got[obj], exp[obj])
				}
				if exp[obj] > want[obj].gain+eps {
					want[obj] = siteMove{gain: exp[obj], a: int32(s.I), b: int32(s.J), inv: s.Inverting}
				}
			}
			checked++
		}
		got := bestSwaps(tm, sg, ws)
		for obj := range got {
			g, w := got[obj], want[obj]
			if !same(g.gain, w.gain) || g.a != w.a || g.b != w.b || g.inv != w.inv {
				t.Fatalf("%v obj %d: bestSwaps = %+v, oracle %+v", sg, obj, g, w)
			}
		}
	}
	return checked
}

func TestSwapFrameMatchesOracleOnSeededCircuits(t *testing.T) {
	for _, name := range []string{"c432", "c1908", "alu2"} {
		n := prepBench(t, name)
		if checkSwaps(t, sta.Analyze(n, lib(), 0)) == 0 {
			t.Fatalf("%s: no swap checked", name)
		}
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

// swapDAG builds a small placed, sized DAG from the fuzz bytes: fanins
// pick any earlier gate (repeats allowed, so a gate can take two pins
// from one driver), every sink-less gate is a primary output, one gate
// is left unplaced when a byte asks, and another byte pins boundary
// conditions. It returns the timing, and the gate added to the network
// after the analysis when a last byte asks for one (nil otherwise).
func swapDAG(data []byte) (*sta.Timing, *network.Gate) {
	r := &fuzzReader{data: data}
	n := network.New("swapfuzz")
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
	tm := sta.AnalyzeBounded(n, lib(), float64(r.next())/40, bd)
	var late *network.Gate
	if r.next()%4 == 0 {
		late = addGate("late")
		late.X, late.Y, late.Placed = float64(r.next()*7), float64(r.next()*5), true
		n.MarkOutput(late)
	}
	return tm, late
}

// swapSeeds are FuzzSwapFrame's seed corpus; TestSwapSeedsCoverEdgeCases
// checks that together they reach every edge case the kernel handles.
var swapSeeds = [][]byte{
	{2, 5, 2, 0, 1, 0, 3, 0, 1, 2, 1, 2, 3, 1},
	{3, 9, 2, 1, 0, 1, 1, 3, 2, 1, 3, 0, 4, 0, 2, 4, 2, 5, 4, 0, 3, 4, 0, 1, 1, 50, 60, 70, 80, 90},
	{1, 12, 3, 2, 0, 0, 2, 0, 0, 1, 1, 0, 1, 2, 5, 0, 2, 1, 3, 4, 7, 1, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 1, 200, 0},
	{3, 10, 2, 1, 0, 1, 3, 2, 2, 0, 2, 1, 3, 2, 1, 1, 3, 4, 0, 3, 1, 5, 3, 1, 2, 4, 1, 6, 2, 2, 7, 6, 3, 2, 0, 4, 8, 1, 2, 6, 3, 0},
	{2, 14, 3, 2, 0, 1, 1, 2, 1, 2, 2, 1, 3, 3, 1, 0, 1, 4, 2, 3, 5, 0, 0, 2, 5, 4, 6, 3, 3, 2, 2, 7, 1, 8, 2, 0, 9, 9, 1, 3, 3, 10, 11, 2, 1, 0, 6, 7, 2, 11, 12, 0},
	// NAND(NOR(i0, i1), i2): i0 and i1 imply 0, i2 implies 1, so the
	// swaps of i2 with either are inverting.
	{2, 1, 3, 0, 0, 1, 0, 2, 0, 3, 2, 1, 1, 3, 4, 10, 2, 7, 9, 5, 5, 1, 12, 3, 0, 0, 1},
}

// swapCase names the edge cases of one swap that the seeds must reach.
type swapCase struct {
	piDriver, twoPins, inverting, unplaced, late bool
}

// swapCases reports which edge cases the swaps of tm's network reach: a
// primary-input leaf driver, a neighborhood gate with two pins on one
// driver (duplicate sink entries), an inverting swap, an unplaced
// terminal on either net, and the late gate in a swap's neighborhood.
func swapCases(tm *sta.Timing, late *network.Gate) swapCase {
	var c swapCase
	for _, sg := range supergate.Extract(tm.Network()).Supergates {
		for _, s := range rewire.Enumerate(sg) {
			ka, kb := s.SG.Leaves[s.I].Pin.Driver(), s.SG.Leaves[s.J].Pin.Driver()
			if ka == kb {
				continue
			}
			c.inverting = c.inverting || s.Inverting
			c.piDriver = c.piDriver || ka.IsInput() || kb.IsInput()
			for _, k := range []*network.Gate{ka, kb} {
				c.unplaced = c.unplaced || !k.Placed
				seen := map[*network.Gate]bool{}
				for _, x := range k.Fanouts() {
					c.twoPins = c.twoPins || seen[x]
					c.unplaced = c.unplaced || !x.Placed
					c.late = c.late || (x == late && late != nil)
					seen[x] = true
				}
			}
		}
	}
	return c
}

func TestSwapSeedsCoverEdgeCases(t *testing.T) {
	var all swapCase
	for _, seed := range swapSeeds {
		c := swapCases(swapDAG(seed))
		all.piDriver = all.piDriver || c.piDriver
		all.twoPins = all.twoPins || c.twoPins
		all.inverting = all.inverting || c.inverting
		all.unplaced = all.unplaced || c.unplaced
		all.late = all.late || c.late
	}
	if all != (swapCase{true, true, true, true, true}) {
		t.Fatalf("FuzzSwapFrame's seeds miss an edge case: %+v", all)
	}
}

func FuzzSwapFrame(f *testing.F) {
	for _, seed := range swapSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tm, _ := swapDAG(data)
		checkSwaps(t, tm)
	})
}
