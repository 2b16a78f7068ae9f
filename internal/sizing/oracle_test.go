package sizing

// The resize-scoring oracle: a direct evaluator that re-derives every pin,
// net, and arrival of the neighborhood from the timing view for each
// evaluated size, baseline included. Frame must match it bit for bit.

import (
	"math"

	"repro/internal/library"
	"repro/internal/network"
	"repro/internal/sta"
)

// oracleDrivers is one evaluation's bookkeeping: the rebuilt net and the
// hypothetical out-pin arrival of every fanin driver of the resized gate.
type oracleDrivers struct {
	net map[*network.Gate]*sta.NetModel
	arr map[*network.Gate]sta.Edge
}

// localSlacks computes the per-gate slacks of the neighborhood under the
// gates' current sizes, with upstream arrivals and required times frozen
// from tm. The caller must have opened the evaluation with sc.Begin;
// results live in the scratch's Slacks buffer until the next evaluation.
func localSlacks(tm *sta.Timing, g *network.Gate, sc *sta.Scratch) []float64 {
	dr := oracleDrivers{net: map[*network.Gate]*sta.NetModel{}, arr: map[*network.Gate]sta.Edge{}}
	// Recompute the nets of g's fanin drivers (their loads and sink wire
	// delays change with g's pin capacitance).
	for _, d := range g.Fanins() {
		if dr.net[d] != nil {
			continue
		}
		// Scratch.Net already folds in the PO pad load.
		m := sc.Net(tm, d, d.Fanouts())
		dr.net[d] = m
		if d.IsInput() {
			dr.arr[d] = sta.Edge{}
			continue
		}
		dr.arr[d] = tm.GateOutput(d, pinArrivals(tm, d, sc, dr), m.Load)
	}
	// Then every sink of those drivers, g included.
	sc.Slacks = sc.Slacks[:0]
	appendSlack := func(x *network.Gate, arr sta.Edge) {
		r := tm.Required(x)
		sc.Slacks = append(sc.Slacks, math.Min(r.Rise-arr.Rise, r.Fall-arr.Fall))
	}
	for _, x := range neighborhood(g, sc) {
		if x.IsInput() {
			continue
		}
		if arr, isDriver := dr.arr[x]; isDriver {
			appendSlack(x, arr)
			continue
		}
		// A sink's load is unchanged (same sinks; for g itself the cell
		// changed but not the net), so tm.Load is still valid.
		arr := tm.GateOutput(x, pinArrivals(tm, x, sc, dr), tm.Load(x))
		appendSlack(x, arr)
	}
	return sc.Slacks
}

// pinArrivals assembles the in-pin arrival edges of gate x into the
// scratch's Pins buffer, preferring hypothetical driver arrivals and net
// models where the evaluation recorded them.
func pinArrivals(tm *sta.Timing, x *network.Gate, sc *sta.Scratch, dr oracleDrivers) []sta.Edge {
	sc.Pins = sc.Pins[:0]
	for _, d := range x.Fanins() {
		arr, ok := dr.arr[d]
		if !ok {
			arr = tm.Arrival(d)
		}
		var w float64
		if m := dr.net[d]; m != nil {
			w = m.SinkDelay(d.Fanouts(), x)
		} else {
			w = tm.WireDelay(d, x)
		}
		sc.Pins = append(sc.Pins, sta.Edge{Rise: arr.Rise + w, Fall: arr.Fall + w})
	}
	return sc.Pins
}

// oracleEvalResize re-derives the whole neighborhood from the timing view
// for the baseline and again for the candidate size, with g's SizeIdx set
// to it for the evaluation and restored after: tests run the oracle on one
// goroutine, and nothing it calls fires a mutation event.
func oracleEvalResize(tm *sta.Timing, g *network.Gate, newSize int, obj Objective, sc *sta.Scratch) float64 {
	if g.IsInput() || newSize == g.SizeIdx {
		return 0
	}
	sc.Begin(tm)
	before := Scores(localSlacks(tm, g, sc), tm.Clock)[obj]
	sc.Begin(tm)
	old := g.SizeIdx
	g.SizeIdx = newSize
	after := Scores(localSlacks(tm, g, sc), tm.Clock)[obj]
	g.SizeIdx = old
	return after - before
}

// oracleBestResize runs one full oracleEvalResize (baseline included) per
// alternative size.
func oracleBestResize(tm *sta.Timing, g *network.Gate, obj Objective, sc *sta.Scratch) (int, float64) {
	bestSize, bestGain := g.SizeIdx, 0.0
	for s := 0; s < library.NumSizes; s++ {
		if s == g.SizeIdx {
			continue
		}
		if gain := oracleEvalResize(tm, g, s, obj, sc); gain > bestGain+eps {
			bestGain = gain
			bestSize = s
		}
	}
	return bestSize, bestGain
}
