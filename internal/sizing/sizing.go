// Package sizing holds the resize move of the gate-sizing algorithm the
// paper adopts from Coudert (§5, their reference [2]): the two
// neighborhood objectives (maximize the minimum slack; the sum-of-slacks
// relaxation that escapes local minima), the local evaluation of one
// candidate resize, and the load-aware initial sizing. The loop that
// alternates the two phases is opt's unified Coudert loop (strategies GS
// and gsg+GS).
//
// Every candidate resize is evaluated *locally*: the arrival times of the
// resized gate's fanin drivers and of all their sinks are recomputed with
// upstream arrivals and downstream required times frozen from the last
// analysis, as a pure read that concurrent scoring workers can share.
package sizing

import (
	"math"

	"repro/internal/library"
	"repro/internal/network"
	"repro/internal/sta"
)

const eps = 1e-9

// Objective selects the neighborhood objective of a phase.
type Objective int

const (
	// MinSlack maximizes the minimum slack in the neighborhood (phase 1).
	MinSlack Objective = iota
	// SumSlack maximizes the sum of slacks in the neighborhood (the
	// relaxation phase).
	SumSlack
)

// neighborhood collects the gates whose timing a resize of g can change
// locally — g's fanin drivers and every sink of those drivers (g itself
// among them) — into the scratch's reusable Hood buffer, in deterministic
// fanin-then-fanout order.
func neighborhood(g *network.Gate, sc *sta.Scratch) []*network.Gate {
	sc.Hood = sc.Hood[:0]
	add := func(x *network.Gate) {
		if sc.MarkSeen(x) {
			sc.Hood = append(sc.Hood, x)
		}
	}
	for _, d := range g.Fanins() {
		add(d)
		for _, s := range d.Fanouts() {
			add(s)
		}
	}
	add(g)
	return sc.Hood
}

// Score reduces a set of neighborhood slacks to the objective value:
// the minimum for MinSlack, the clock-clipped sum for SumSlack.
func Score(obj Objective, slacks []float64, clock float64) float64 {
	switch obj {
	case MinSlack:
		min := math.MaxFloat64
		for _, s := range slacks {
			if s < min {
				min = s
			}
		}
		return min
	default:
		sum := 0.0
		for _, s := range slacks {
			if s > clock {
				s = clock
			}
			sum += s
		}
		return sum
	}
}

// localSlacks computes the per-gate slacks of the neighborhood under the
// scratch's effective gate sizes (committed SizeIdx plus any override),
// with upstream arrivals and required times frozen from tm. The caller
// must have opened the evaluation with sc.Begin; results live in the
// scratch's Slacks buffer until the next evaluation. Everything is a pure
// read of tm and the network, so concurrent workers with private
// scratches can evaluate disjoint candidates in parallel.
func localSlacks(tm *sta.Timing, g *network.Gate, sc *sta.Scratch) []float64 {
	// Recompute the nets of g's fanin drivers (their loads and sink wire
	// delays change with g's pin capacitance).
	for _, d := range g.Fanins() {
		if sc.NetOf(d) != nil {
			continue
		}
		// Scratch.Net already folds in the PO pad load.
		m := sc.Net(tm, d, d.Fanouts())
		if d.IsInput() {
			sc.SetArrival(d, sta.Edge{})
			continue
		}
		sc.SetArrival(d, tm.GateOutputSc(sc, d, pinArrivals(tm, d, sc), m.Load))
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
		if arr, isDriver := sc.HypArrival(x); isDriver {
			appendSlack(x, arr)
			continue
		}
		// A sink's load is unchanged (same sinks; for g itself the cell
		// changed but not the net), so tm.Load is still valid.
		arr := tm.GateOutputSc(sc, x, pinArrivals(tm, x, sc), tm.Load(x))
		appendSlack(x, arr)
	}
	return sc.Slacks
}

// pinArrivals assembles the in-pin arrival edges of gate x into the
// scratch's Pins buffer, preferring hypothetical driver arrivals and net
// models where the evaluation recorded them.
func pinArrivals(tm *sta.Timing, x *network.Gate, sc *sta.Scratch) []sta.Edge {
	sc.Pins = sc.Pins[:0]
	for _, d := range x.Fanins() {
		arr, ok := sc.HypArrival(d)
		if !ok {
			arr = tm.Arrival(d)
		}
		var w float64
		if m := sc.NetOf(d); m != nil {
			w = m.SinkDelay(x)
		} else {
			w = tm.WireDelay(d, x)
		}
		sc.Pins = append(sc.Pins, sta.Edge{Rise: arr.Rise + w, Fall: arr.Fall + w})
	}
	return sc.Pins
}

// EvalResize returns the objective gain of switching g to newSize, locally
// evaluated against tm. Positive is better. It is a convenience wrapper
// over EvalResizeScratch with a pooled arena.
func EvalResize(tm *sta.Timing, g *network.Gate, newSize int, obj Objective) float64 {
	sc := sta.GetScratch()
	gain := EvalResizeScratch(tm, g, newSize, obj, sc)
	sta.PutScratch(sc)
	return gain
}

// EvalResizeScratch is EvalResize evaluating through an explicit arena. g
// is never written: the hypothetical size lives in the scratch as an
// override (so mutation observers never see it and concurrent evaluations
// of neighboring gates never race on SizeIdx).
func EvalResizeScratch(tm *sta.Timing, g *network.Gate, newSize int, obj Objective, sc *sta.Scratch) float64 {
	if g.IsInput() || newSize == g.SizeIdx {
		return 0
	}
	sc.Begin(tm)
	before := Score(obj, localSlacks(tm, g, sc), tm.Clock)
	sc.Begin(tm)
	sc.OverrideSize(g, newSize)
	after := Score(obj, localSlacks(tm, g, sc), tm.Clock)
	return after - before
}

// BestResize returns the best alternative size for g and its gain.
// A non-positive gain means the current size is locally optimal.
func BestResize(tm *sta.Timing, g *network.Gate, obj Objective) (int, float64) {
	sc := sta.GetScratch()
	size, gain := BestResizeScratch(tm, g, obj, sc)
	sta.PutScratch(sc)
	return size, gain
}

// BestResizeScratch is BestResize evaluating through an explicit arena —
// the scoring engine's per-worker entry point.
func BestResizeScratch(tm *sta.Timing, g *network.Gate, obj Objective, sc *sta.Scratch) (int, float64) {
	bestSize, bestGain := g.SizeIdx, 0.0
	for s := 0; s < library.NumSizes; s++ {
		if s == g.SizeIdx {
			continue
		}
		if gain := EvalResizeScratch(tm, g, s, obj, sc); gain > bestGain+eps {
			bestGain = gain
			bestSize = s
		}
	}
	return bestSize, bestGain
}

// DefaultStageTargetNS is the load-delay budget per stage used by
// SeedForLoad when none is given.
const DefaultStageTargetNS = 0.3

// SeedForLoad assigns initial implementations from actual post-placement
// loads: the smallest size whose drive resistance keeps the load-dependent
// delay term R × C_load within the per-stage target. This emulates what
// the paper's timing-driven mapper delivers — a netlist already sized for
// the loads it drives — and is the baseline all three optimizers start
// from. Because input capacitances feed back into loads, the fixed point
// is approached with two passes.
func SeedForLoad(n *network.Network, lib *library.Library, targetNS float64) {
	if targetNS <= 0 {
		targetNS = DefaultStageTargetNS
	}
	for pass := 0; pass < 2; pass++ {
		tm := sta.Analyze(n, lib, 0)
		n.Gates(func(g *network.Gate) {
			if g.IsInput() {
				return
			}
			load := tm.Load(g)
			for s := 0; s < library.NumSizes; s++ {
				c := lib.MustCell(g.Type, g.NumFanins(), s)
				r := math.Max(c.ResRise, c.ResFall)
				if r*load <= targetNS || s == library.NumSizes-1 {
					n.SetSize(g, s)
					break
				}
			}
		})
	}
}
