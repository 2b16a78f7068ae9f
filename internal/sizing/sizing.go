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
// Frame captures once per site everything a size does not change — the
// drivers' star geometry, every pin fold that no size reaches, the other
// neighborhood gates' cell delays — so the baseline and the alternative
// sizes of one site are scored from a single frame, each size re-patching
// only the resized gate's pin capacitance and cell. Every term is the same
// floating-point operation on the same operands as re-deriving the
// neighborhood per size, and a pin fold is a maximum, exact in any order,
// so the gains are bit-identical to that evaluation (the test oracle).
package sizing

import (
	"math"

	"repro/internal/library"
	"repro/internal/logic"
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
// and g's own cell, so build captures once per site, from the timing
// view, everything that a size does not change:
//
//   - the driver list and the neighborhood, with each neighborhood
//     gate's required time;
//   - each driver's net: its star geometry and sink pin capacitances,
//     one star build per driver, plus the positions of g's entries in
//     its sink list;
//   - each gate's fold over its static pins, those whose arrival and
//     wire delay no size changes (committed values);
//   - the cell delay of every neighborhood gate other than the drivers
//     and g, at its frozen load;
//   - each dynamic pin, as its gate's neighborhood entry and its index in
//     the feeding driver's sink list.
//
// Scoring a size then only patches g's capacitance into the driver nets
// and re-evaluates their loads and wire delays, re-times each driver from
// its static fold, and folds each dynamic pin into its gate. Every term
// is the same floating-point operation on the same operands as the
// per-size evaluation that re-derives the whole neighborhood (the test
// oracle), and the pin fold is a maximum, exact in any order and grouping
// (sta.FoldPin), so the gains are bit-identical to it.
//
// A Frame borrows its worker's sta.Scratch (for the neighborhood, the
// position table, the driver nets and the slack buffer; a frame's nets
// stay valid until the scratch's next Begin, which only build calls) and
// reuses its own slices, so a steady-state evaluation allocates nothing.
// It is not safe for concurrent use.
type Frame struct {
	sc    *sta.Scratch
	g     *network.Gate
	gload float64
	// capSize is the size whose pin capacitance the driver nets hold:
	// build's nets hold g's own, so the baseline re-evaluates none.
	capSize int

	drivers []frameDriver
	hood    []frameGate
	fans    []frameFan
	gpos    []int32
}

// frameDriver is one distinct fanin driver of the resized gate, in first
// fanin order. net is its net, built once per site; gpos[glo:ghi] are
// the resized gate's entries in its sink list, and fans[lo:hi] the
// dynamic pins it feeds. cell is its cell and h its neighborhood entry,
// nil and -1 for a primary input. arr holds the current size's arrival.
type frameDriver struct {
	d        *network.Gate
	cell     *library.Cell
	h        int32
	net      *sta.NetModel
	glo, ghi int32
	lo, hi   int32
	arr      sta.Edge
}

// frameGate is one neighborhood gate whose slack the objective scores.
// static folds its static pins: for a driver (drv >= 0) every pin that no
// earlier driver feeds, for any other gate every pin that no driver
// feeds. acc is static with the current size's dynamic pins folded in. A
// driver's arrival comes from its net's load; any other gate's is acc
// plus delay, its cell's delay at its frozen load (for g, the size's
// cell's, computed per size).
type frameGate struct {
	x      *network.Gate
	typ    logic.GateType
	req    sta.Edge
	static sta.Edge
	acc    sta.Edge
	delay  sta.Edge
	drv    int32
}

// frameFan is one dynamic pin: neighborhood entry h's pin fed by the
// driver whose sink-list entry i it is. Duplicate entries of one sink hold
// equal delays, so each pin reads its own.
type frameFan struct{ h, i int32 }

// NewFrame returns an empty frame evaluating through sc, sized for a
// typical site so most frames never grow.
func NewFrame(sc *sta.Scratch) *Frame {
	return &Frame{
		sc:      sc,
		drivers: make([]frameDriver, 0, library.MaxFanin),
		hood:    make([]frameGate, 0, 64),
		fans:    make([]frameFan, 0, 128),
		gpos:    make([]int32, 0, library.MaxFanin),
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

// staticFold folds x's pins that no driver before the k-th feeds, with
// committed arrivals and wire delays. Drivers are listed in order, so a
// driver feeding a later driver of the same gate is dynamic for it, and
// one feeding an earlier driver is not — exactly the order in which a
// driver's hypothetical arrival becomes visible when the neighborhood is
// re-timed driver by driver.
func (f *Frame) staticFold(tm *sta.Timing, x *network.Gate, k int32) sta.Edge {
	var acc sta.Edge
	for j, d := range x.Fanins() {
		if i := f.driverIndex(d); i >= 0 && i < k {
			continue
		}
		a, w := tm.Arrival(d), tm.PinWireDelay(d, x, j)
		acc = sta.FoldPin(x.Type, acc, sta.Edge{Rise: a.Rise + w, Fall: a.Fall + w})
	}
	return acc
}

// build captures the size-independent frame of a resize of g against tm.
func (f *Frame) build(tm *sta.Timing, g *network.Gate) {
	sc := f.sc
	f.g, f.gload, f.capSize = g, tm.Load(g), g.SizeIdx
	f.drivers, f.hood, f.fans, f.gpos = f.drivers[:0], f.hood[:0], f.fans[:0], f.gpos[:0]
	for _, d := range g.Fanins() {
		if f.driverIndex(d) < 0 {
			f.drivers = append(f.drivers, frameDriver{d: d, h: -1})
		}
	}
	sc.Begin(tm)
	for _, x := range neighborhood(g, sc) {
		if x.IsInput() {
			continue
		}
		h := frameGate{x: x, typ: x.Type, req: tm.Required(x), drv: f.driverIndex(x)}
		k := int32(len(f.drivers))
		switch {
		case h.drv >= 0:
			k = h.drv
			dr := &f.drivers[h.drv]
			dr.h, dr.cell = int32(len(f.hood)), tm.Cell(x, x.SizeIdx)
		case x != g:
			// A sink's load is unchanged (same sinks; for g itself the
			// cell changed but not the net), so tm.Load is still valid.
			rise, fall := tm.Cell(x, x.SizeIdx).Delay(tm.Load(x))
			h.delay = sta.Edge{Rise: rise, Fall: fall}
		}
		h.static = f.staticFold(tm, x, k)
		sc.SetPos(x, len(f.hood))
		f.hood = append(f.hood, h)
	}
	for k := range f.drivers {
		dr := &f.drivers[k]
		// Scratch.Net already folds in the PO pad load.
		dr.net = sc.Net(tm, dr.d, dr.d.Fanouts())
		dr.lo, dr.glo = int32(len(f.fans)), int32(len(f.gpos))
		for i, x := range dr.d.Fanouts() {
			if x == g {
				f.gpos = append(f.gpos, int32(i))
			}
			h := sc.Pos(x) // every sink is in the neighborhood
			if drv := f.hood[h].drv; drv >= 0 && drv < int32(k) {
				continue // an earlier driver reads this pin as static
			}
			f.fans = append(f.fans, frameFan{h: int32(h), i: int32(i)})
		}
		dr.hi, dr.ghi = int32(len(f.fans)), int32(len(f.gpos))
	}
}

// scores evaluates the built frame under both objectives with g at the
// given size: the drivers' nets take the size's pin capacitance, the
// drivers are re-timed in order, each pushing its new arrival into the
// pins it feeds, and every neighborhood gate's slack is scored with
// required times frozen.
func (f *Frame) scores(tm *sta.Timing, size int) [2]float64 {
	sc, g := f.sc, f.g
	cell := tm.Cell(g, size)
	for i := range f.hood {
		f.hood[i].acc = f.hood[i].static
	}
	for k := range f.drivers {
		dr := &f.drivers[k]
		if size != f.capSize {
			dr.net.Recap(f.gpos[dr.glo:dr.ghi], cell.InputCap)
		}
		dr.arr = sta.Edge{}
		if dr.h >= 0 {
			w := f.hood[dr.h].acc
			rise, fall := dr.cell.Delay(dr.net.Load)
			dr.arr = sta.Edge{Rise: w.Rise + rise, Fall: w.Fall + fall}
		}
		delays := dr.net.Delays()
		for _, fn := range f.fans[dr.lo:dr.hi] {
			h, w := &f.hood[fn.h], delays[fn.i]
			h.acc = sta.FoldPin(h.typ, h.acc, sta.Edge{Rise: dr.arr.Rise + w, Fall: dr.arr.Fall + w})
		}
	}
	f.capSize = size
	gRise, gFall := cell.Delay(f.gload)
	sc.Slacks = sc.Slacks[:0]
	for i := range f.hood {
		h := &f.hood[i]
		var arr sta.Edge
		switch {
		case h.drv >= 0:
			arr = f.drivers[h.drv].arr
		case h.x == g:
			arr = sta.Edge{Rise: h.acc.Rise + gRise, Fall: h.acc.Fall + gFall}
		default:
			arr = sta.Edge{Rise: h.acc.Rise + h.delay.Rise, Fall: h.acc.Fall + h.delay.Fall}
		}
		sc.Slacks = append(sc.Slacks, min(h.req.Rise-arr.Rise, h.req.Fall-arr.Fall))
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
