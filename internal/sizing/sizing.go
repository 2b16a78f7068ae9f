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
// analysis, as a pure read that concurrent scoring workers can share. A
// Frame captures what a site's sizes share once, so the baseline and the
// alternative sizes of one site are scored from a single frame.
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

// Scores reduces a set of neighborhood slacks to the value of each
// objective, indexed by Objective: the minimum for MinSlack, the
// clock-clipped sum for SumSlack. A candidate's slack vector does not
// depend on the phase that asks for it, so one pass serves both.
func Scores(slacks []float64, clock float64) [2]float64 {
	min, sum := math.MaxFloat64, 0.0
	for _, s := range slacks {
		if s < min {
			min = s
		}
		if s > clock {
			s = clock
		}
		sum += s
	}
	return [2]float64{MinSlack: min, SumSlack: sum}
}

// Frame is one worker's resize-evaluation arena: the frame of a single
// resize site, shared by the baseline and every alternative size. A
// resize of g changes only g's pin capacitance on its fanin drivers' nets
// and g's own cell, so everything else a local evaluation reads is the
// same for all sizes and is frozen once per site from the timing view: the
// driver list and neighborhood, each neighborhood gate's required time
// and load, and every pin edge (arrival plus committed wire delay) whose
// driver is not one of g's drivers. Scoring a size then rebuilds only
// what depends on it: the driver nets, the driver arrivals, and the pins
// those drivers feed. The arithmetic is the per-size evaluation's, term
// for term, so the gains are bit-identical to re-deriving the whole
// neighborhood for every size.
//
// A Frame borrows its worker's sta.Scratch (for the net models and the
// pin and slack buffers) and reuses its own slices, so a steady-state
// evaluation allocates nothing. It is not safe for concurrent use.
type Frame struct {
	sc *sta.Scratch
	g  *network.Gate

	drivers []frameDriver
	hood    []frameGate
	pins    []framePin
}

// frameDriver is one distinct fanin driver of the resized gate, in first
// fanin order. pins[lo:hi] are its in-pins (none for a primary input);
// net and arr hold the current size's rebuilt net and out-pin arrival.
type frameDriver struct {
	d      *network.Gate
	lo, hi int32
	net    *sta.NetModel
	arr    sta.Edge
}

// frameGate is one neighborhood gate whose slack the objective scores.
// A driver (drv >= 0) takes its slack from the driver's rebuilt arrival;
// any other gate is re-timed from pins[lo:hi] under its frozen load.
type frameGate struct {
	x      *network.Gate
	req    sta.Edge
	load   float64
	drv    int32
	lo, hi int32
}

// framePin is one in-pin of a re-timed gate: the frozen edge, or (drv >=
// 0) a dynamic pin fed by driver drv — its arrival plus its net's wire
// delay to the pin's gate.
type framePin struct {
	edge sta.Edge
	drv  int32
}

// NewFrame returns an empty frame evaluating through sc, sized for a
// typical site so most frames never grow.
func NewFrame(sc *sta.Scratch) *Frame {
	return &Frame{
		sc:      sc,
		drivers: make([]frameDriver, 0, library.MaxFanin),
		hood:    make([]frameGate, 0, 64),
		pins:    make([]framePin, 0, 256),
	}
}

// driverIndex returns the index of d among the drivers listed so far, or
// -1. Gates have a handful of fanins, so the scan beats any lookup table.
func (f *Frame) driverIndex(d *network.Gate) int32 {
	for i := range f.drivers {
		if f.drivers[i].d == d {
			return int32(i)
		}
	}
	return -1
}

// appendPins freezes x's in-pins. A pin fed by a driver already listed is
// dynamic; any other pin reads the committed arrival and wire delay.
// Drivers are listed in order, so a driver feeding a later driver of the
// same gate is dynamic for it, and one feeding an earlier driver is not —
// exactly the order in which a driver's hypothetical arrival becomes
// visible when the neighborhood is re-timed driver by driver.
func (f *Frame) appendPins(tm *sta.Timing, x *network.Gate) (lo, hi int32) {
	lo = int32(len(f.pins))
	for j, d := range x.Fanins() {
		if k := f.driverIndex(d); k >= 0 {
			f.pins = append(f.pins, framePin{drv: k})
			continue
		}
		a, w := tm.Arrival(d), tm.PinWireDelay(d, x, j)
		f.pins = append(f.pins, framePin{edge: sta.Edge{Rise: a.Rise + w, Fall: a.Fall + w}, drv: -1})
	}
	return lo, int32(len(f.pins))
}

// build captures the size-independent frame of a resize of g against tm.
func (f *Frame) build(tm *sta.Timing, g *network.Gate) {
	f.g = g
	f.drivers = f.drivers[:0]
	f.hood = f.hood[:0]
	f.pins = f.pins[:0]
	for _, d := range g.Fanins() {
		if f.driverIndex(d) >= 0 {
			continue
		}
		var lo, hi int32
		if !d.IsInput() {
			lo, hi = f.appendPins(tm, d)
		}
		f.drivers = append(f.drivers, frameDriver{d: d, lo: lo, hi: hi})
	}
	f.sc.Begin(tm)
	for _, x := range neighborhood(g, f.sc) {
		if x.IsInput() {
			continue
		}
		h := frameGate{x: x, req: tm.Required(x), drv: f.driverIndex(x)}
		if h.drv < 0 {
			// A sink's load is unchanged (same sinks; for g itself the
			// cell changed but not the net), so tm.Load is still valid.
			h.load = tm.Load(x)
			h.lo, h.hi = f.appendPins(tm, x)
		}
		f.hood = append(f.hood, h)
	}
}

// pinEdges assembles the in-pin edges of pins[lo:hi] for gate x into the
// scratch's Pins buffer, completing dynamic pins from the current size's
// driver arrivals and nets.
func (f *Frame) pinEdges(x *network.Gate, lo, hi int32) []sta.Edge {
	sc := f.sc
	sc.Pins = sc.Pins[:0]
	for _, p := range f.pins[lo:hi] {
		if p.drv < 0 {
			sc.Pins = append(sc.Pins, p.edge)
			continue
		}
		dr := &f.drivers[p.drv]
		w := dr.net.SinkDelay(x)
		sc.Pins = append(sc.Pins, sta.Edge{Rise: dr.arr.Rise + w, Fall: dr.arr.Fall + w})
	}
	return sc.Pins
}

// scores evaluates the built frame under both objectives with g at the
// given size: the drivers' nets and arrivals are rebuilt under the size's
// pin capacitance, then every neighborhood gate's slack is scored with
// required times frozen.
func (f *Frame) scores(tm *sta.Timing, size int) [2]float64 {
	sc := f.sc
	sc.Begin(tm)
	sc.OverrideSize(f.g, size)
	for i := range f.drivers {
		dr := &f.drivers[i]
		// Scratch.Net already folds in the PO pad load.
		dr.net = sc.Net(tm, dr.d, dr.d.Fanouts())
		if dr.d.IsInput() {
			dr.arr = sta.Edge{}
			continue
		}
		dr.arr = tm.GateOutputSc(sc, dr.d, f.pinEdges(dr.d, dr.lo, dr.hi), dr.net.Load)
	}
	sc.Slacks = sc.Slacks[:0]
	for i := range f.hood {
		h := &f.hood[i]
		var arr sta.Edge
		if h.drv >= 0 {
			arr = f.drivers[h.drv].arr
		} else {
			arr = tm.GateOutputSc(sc, h.x, f.pinEdges(h.x, h.lo, h.hi), h.load)
		}
		sc.Slacks = append(sc.Slacks, math.Min(h.req.Rise-arr.Rise, h.req.Fall-arr.Fall))
	}
	return Scores(sc.Slacks, tm.Clock)
}

// EvalResize returns the objective gain of switching g to newSize, locally
// evaluated against tm: the arrival times of g's fanin drivers and of all
// their sinks are recomputed with upstream arrivals and downstream
// required times frozen. Positive is better. g is never written: the
// hypothetical size lives in the scratch as an override, so mutation
// observers never see it and concurrent evaluations of neighboring gates
// never race on SizeIdx.
func (f *Frame) EvalResize(tm *sta.Timing, g *network.Gate, newSize int, obj Objective) float64 {
	if g.IsInput() || newSize == g.SizeIdx {
		return 0
	}
	f.build(tm, g)
	before := f.scores(tm, g.SizeIdx)[obj]
	return f.scores(tm, newSize)[obj] - before
}

// Resize is a site's best alternative size and its gain. A non-positive
// gain means the current size is locally optimal.
type Resize struct {
	Size int
	Gain float64
}

// BestResizes returns g's best alternative size under each objective,
// indexed by Objective, from one frame: the baseline and each
// alternative size are scored once and reduced under both objectives.
// It is the scoring engine's per-worker entry point.
func (f *Frame) BestResizes(tm *sta.Timing, g *network.Gate) [2]Resize {
	best := [2]Resize{{Size: g.SizeIdx}, {Size: g.SizeIdx}}
	if g.IsInput() {
		return best
	}
	f.build(tm, g)
	before := f.scores(tm, g.SizeIdx)
	for s := 0; s < library.NumSizes; s++ {
		if s == g.SizeIdx {
			continue
		}
		after := f.scores(tm, s)
		for obj := range best {
			if gain := after[obj] - before[obj]; gain > best[obj].Gain+eps {
				best[obj] = Resize{Size: s, Gain: gain}
			}
		}
	}
	return best
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
