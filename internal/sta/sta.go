// Package sta is the static timing analyzer of the post-placement flow.
// It combines the library's pin-to-pin load-dependent gate delay model
// (separate rise and fall, §6) with the star-model Elmore interconnect
// delays of the wire package, and produces per-gate arrival times,
// required times, and slacks.
//
// Conventions: a gate's "arrival" is at its out-pin; primary inputs arrive
// at time 0; the required time at every primary output is the clock
// constraint (or, when no clock is given, the critical delay itself, which
// makes the worst slack exactly zero and turns slack maximization into
// delay minimization, as in the paper's optimizer).
//
// Two timers share the delay model. Analyze is the ground-truth oracle: a
// from-scratch three-pass analysis of the whole network. Incremental
// subscribes to network mutation events and, on Update, re-propagates
// timing only through the dirty region — the optimizers' hot path. See
// incremental.go for the invalidation rules.
//
// Per-gate state lives in dense gate-ID-indexed arrays, not maps: gate IDs
// are dense and never reused (network.IDBound), and the profile-guided
// pass of PR 6 found pointer-keyed map lookups (Arrival, WireDelay, Slack,
// level ordering) were ~30 % of the optimizer's total CPU. Array indexing
// replaces hashing everywhere on the hot path; accessors bounds-check so a
// gate created after the analysis reads as zero, exactly like a map miss.
package sta

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/network"
)

// POLoadPF is the fixed capacitive load presented by a primary-output pad
// in pF.
const POLoadPF = 0.03

// Edge carries separate rise and fall times in ns.
type Edge struct{ Rise, Fall float64 }

// Max returns the worse of the two edges.
func (e Edge) Max() float64 {
	if e.Rise > e.Fall {
		return e.Rise
	}
	return e.Fall
}

// Min returns the better of the two edges.
func (e Edge) Min() float64 {
	if e.Rise < e.Fall {
		return e.Rise
	}
	return e.Fall
}

func (e Edge) add(d float64) Edge { return Edge{e.Rise + d, e.Fall + d} }

const inf = math.MaxFloat64

// wireEntry is one driver's cached star model: the total net load, and
// the sink list and wire delay to each sink in slots off through off+n-1
// of the Timing's net arena (netSinks/netDelays), which has room for cp
// sinks there. A rebuild refills the slots in place; a net that outgrows
// them moves to fresh slots at the arena's end, and a full analysis
// re-lays the arena compactly. Whether the entry is current lives in
// Timing.netGen.
type wireEntry struct {
	load       float64
	off, n, cp int32
}

// net returns driver id's cached sinks and their wire delays.
func (t *Timing) net(id int) ([]*network.Gate, []float64) {
	w := &t.wire[id]
	return t.netSinks[w.off : w.off+w.n], t.netDelays[w.off : w.off+w.n]
}

// sinkDelay returns the wire delay from driver id to sink s on its cached
// net — the worst over duplicate entries, 0 when s is not a sink. Nets
// average a few pins, so the linear scan beats any map.
func (t *Timing) sinkDelay(id int, s *network.Gate) float64 {
	sinks, delays := t.net(id)
	d, found := 0.0, false
	for i, x := range sinks {
		if x == s && (!found || delays[i] > d) {
			d = delays[i]
			found = true
		}
	}
	return d
}

// Timing holds the results of one analysis. It is invalidated by any
// structural, sizing, or placement change; run Analyze again, or keep it
// live through an Incremental timer (the optimizers use
// ComputeNet/GateOutput for hypothetical local evaluation in between).
type Timing struct {
	n      *network.Network
	lib    *library.Library
	bounds *Bounds

	// Dense gate-ID-indexed state. A gate with ID beyond the array bound
	// (created after the last analysis/update) reads as the zero value
	// through the accessors, mirroring the map-miss semantics this layout
	// replaced.
	arrival  []Edge
	required []Edge
	load     []float64
	wire     []wireEntry

	// The net arena behind the wire entries: one sink list and delay
	// list per driver, in two shared arrays, so a full analysis
	// allocates a handful of times instead of twice per gate.
	netSinks  []*network.Gate
	netDelays []float64

	// The pin table: each fanin pin's wire delay, written by its driver's
	// setNet so the sweeps read a pin in O(1) instead of scanning the
	// driver's sink list. Gate g's pins occupy slots pinOff[g] through
	// pinOff[g]+pinN[g]-1 of pinGen/pinDelay. netGen[d] is the generation
	// of driver d's cached net, 0 when d has none; every setNet draws a
	// fresh generation from gen and tags the slots it writes with it. A
	// slot whose tag equals its driver's netGen was written by the
	// driver's current net, so it holds exactly what WireDelay's scan
	// returns; any other slot is ignored (PinWireDelay).
	netGen   []uint32
	pinOff   []int32
	pinN     []uint8
	pinGen   []uint32
	pinDelay []float64
	gen      uint32

	// nsc is the net-model scratch setNet rebuilds committed nets through;
	// only its geometry buffers persist (its sink/delay slices are set to
	// the net's arena slots for each rebuild).
	nsc NetModel

	// undo, when non-nil, logs the old value of everything an update
	// overwrites, for an Incremental's Rollback (see undoLog).
	undo *undoLog

	// version identifies the network state this view times, for callers
	// that cache what they derive from it (opt's scoring engine). An
	// Incremental timer draws a fresh, process-unique version whenever it
	// finishes re-timing a changed network, required times included, and
	// Rollback restores the checkpoint's. A plain analysis has version 0,
	// which identifies nothing.
	version uint64
	// reqStale marks a view whose required times lag its arrivals: an
	// Incremental.UpdateArrivals deferred the backward work to the next
	// Update. Version and Scratch.Begin panic on such a view, so nothing
	// that scores slacks can read it.
	reqStale bool

	// Clock is the PO required time used; equals CriticalDelay when
	// Analyze was called without a positive clock.
	Clock float64
	// CriticalDelay is the maximum PO arrival.
	CriticalDelay float64
	// Lateness is the worst violation of the primary outputs' boundary
	// required times: max over POs of (arrival − pinned required), per
	// edge. Without pinned bounds this is exactly CriticalDelay − Clock,
	// so comparing latenesses is comparing critical delays; with pinned
	// per-PO required times it is the metric that stays meaningful. The
	// optimizers' regression guard compares this field.
	Lateness float64
}

// grow extends the per-gate arrays to cover IDs below bound. Existing
// entries keep their values; new slots are zero (invalid wire entries).
func (t *Timing) grow(bound int) {
	if bound <= len(t.arrival) {
		return
	}
	t.arrival = append(t.arrival, make([]Edge, bound-len(t.arrival))...)
	t.required = append(t.required, make([]Edge, bound-len(t.required))...)
	t.load = append(t.load, make([]float64, bound-len(t.load))...)
	t.wire = append(t.wire, make([]wireEntry, bound-len(t.wire))...)
	t.netGen = append(t.netGen, make([]uint32, bound-len(t.netGen))...)
	t.pinOff = append(t.pinOff, make([]int32, bound-len(t.pinOff))...)
	t.pinN = append(t.pinN, make([]uint8, bound-len(t.pinN))...)
}

// forget zeroes every per-gate entry of a removed gate, restoring the
// exact map-miss reads the deleted keys used to produce.
func (t *Timing) forget(g *network.Gate) {
	id := g.ID()
	if id >= len(t.arrival) {
		return
	}
	t.setArrival(id, Edge{})
	t.setRequired(id, Edge{})
	t.saveGate(id)
	t.load[id] = 0
	t.netGen[id] = 0
}

// setNet installs the committed star model of driver d over its current
// fanouts and returns its load. The sink/delay pairs go to the net's arena
// slots and the star geometry through the Timing-held scratch, so a net
// rebuild allocates only when the arena grows. It tags the net with a
// fresh generation and writes every sink pin d feeds into the pin table:
// a sink that d feeds through several pins appears once per pin in the
// sink list, and each of those pins gets the worst delay over the
// duplicates, as WireDelay does.
func (t *Timing) setNet(d *network.Gate) float64 {
	id := d.ID()
	t.saveGate(id)
	w := &t.wire[id]
	fo := d.Fanouts()
	if k := len(fo); k > int(w.cp) {
		w.off, w.cp = int32(len(t.netSinks)), int32(k)
		t.netSinks = append(t.netSinks, make([]*network.Gate, k)...)
		t.netDelays = append(t.netDelays, make([]float64, k)...)
	} else {
		t.saveSlots(int(w.off), int(w.off)+k)
	}
	copy(t.netSinks[w.off:w.off+w.cp], fo)
	m := &t.nsc
	m.delays = t.netDelays[w.off : w.off : w.off+w.cp]
	t.computeNetInto(m, d, fo)
	w.load = m.Load
	w.n = int32(len(fo))
	m.delays = nil // the arena owns these; never reuse them as scratch

	gen := t.nextGen()
	t.netGen[id] = gen
	sinks, delays := t.net(id)
	for i, s := range sinks {
		off := t.pinSlots(s)
		for j, f := range s.Fanins() {
			if f != d {
				continue
			}
			if k := off + j; t.pinGen[k] != gen || delays[i] > t.pinDelay[k] {
				t.savePin(k)
				t.pinGen[k] = gen
				t.pinDelay[k] = delays[i]
			}
		}
	}
	return w.load
}

// nextGen draws a fresh net generation. When the counter would wrap, every
// pin tag is cleared and every current net re-stamped to 1, below any
// generation drawn afterwards, so no old tag can alias a new net.
func (t *Timing) nextGen() uint32 {
	if t.gen == math.MaxUint32 {
		t.saveTags()
		clear(t.pinGen)
		for i, g := range t.netGen {
			if g != 0 {
				t.netGen[i] = 1
			}
		}
		t.gen = 1
	}
	t.gen++
	return t.gen
}

// pinSlots returns the first pin-table slot of gate s, first appending
// zero-tagged slots for all of its pins when it has none or fewer than it
// now has fanins (a gate created since the last analysis, or widened by
// SetFanins; its old slots are abandoned until the next full analysis
// re-lays the table). A timed gate has at most library.MaxFanin pins, so
// the count fits pinN's byte.
func (t *Timing) pinSlots(s *network.Gate) int {
	id, k := s.ID(), s.NumFanins()
	if int(t.pinN[id]) < k {
		t.saveGate(id)
		t.pinOff[id] = int32(len(t.pinGen))
		t.pinN[id] = uint8(k)
		t.pinGen = append(t.pinGen, make([]uint32, k)...)
		t.pinDelay = append(t.pinDelay, make([]float64, k)...)
	}
	return int(t.pinOff[id])
}

// Analyze runs a full timing analysis of the mapped, placed network. If
// clock <= 0 the PO required time is set to the measured critical delay.
func Analyze(n *network.Network, lib *library.Library, clock float64) *Timing {
	return AnalyzeBounded(n, lib, clock, nil)
}

// AnalyzeBounded is Analyze under pinned boundary conditions: primary
// inputs listed in b arrive at their pinned times instead of 0, primary
// outputs listed in b are required at their pinned times instead of the
// clock, and gates listed in b.POLoad drive the given extra capacitance.
// A nil b is exactly Analyze.
func AnalyzeBounded(n *network.Network, lib *library.Library, clock float64, b *Bounds) *Timing {
	t := &Timing{n: n, lib: lib, bounds: b}
	t.analyzeInto(clock, nil)
	return t
}

// versions hands out Timing versions; see Timing.Version.
var versions atomic.Uint64

// timingPool recycles the dense per-gate arrays of released analyses.
// The optimizer's rounds run one full analysis each; without recycling,
// each pays a fresh allocation of four network-sized arrays plus the
// per-net sink slices, which PR 6's memory profile showed as the largest
// allocator in the regioned flow.
var timingPool = sync.Pool{New: func() interface{} { return &Timing{} }}

// AnalyzeReleased is AnalyzeBounded on a pooled Timing: the returned
// analysis reuses arrays from an earlier ReleaseTiming when available.
// Callers that drop the analysis after reading it should hand it back
// with ReleaseTiming.
func AnalyzeReleased(n *network.Network, lib *library.Library, clock float64, b *Bounds) *Timing {
	t := drawTiming()
	t.n, t.lib, t.bounds = n, lib, b
	t.analyzeInto(clock, nil)
	return t
}

// drawnTimings counts the Timings drawn from timingPool for something
// other than an incremental timer's own view: analyses and checkpoint
// copies. Tests read it to check that a run holds one Timing.
var drawnTimings atomic.Int64

// drawTiming draws a Timing from timingPool and counts it.
func drawTiming() *Timing {
	drawnTimings.Add(1)
	return timingPool.Get().(*Timing)
}

// ReleaseTiming returns an analysis obtained from AnalyzeReleased to the
// pool. The Timing must not be read afterwards. A released Timing keeps
// its arrays but no gate pointer (see dropGates), so the pool never keeps
// a finished network reachable.
func ReleaseTiming(t *Timing) {
	t.dropGates()
	timingPool.Put(t)
}

// dropGates clears every reference the Timing keeps into the network it
// analyzed: the network, its library and bounds, and the net arena's
// sinks up to the arena's capacity. The next analysis re-lays the arena
// from empty. It costs O(capacity), once per run.
func (t *Timing) dropGates() {
	t.n, t.lib, t.bounds = nil, nil, nil
	t.netSinks = clearGates(t.netSinks)
}

// copyFrom makes t an exact copy of src's analysis, reusing t's arrays.
// Only the net-model scratch is not copied; it holds nothing between
// rebuilds.
func (t *Timing) copyFrom(src *Timing) {
	t.n, t.lib, t.bounds = src.n, src.lib, src.bounds
	t.arrival = copyInto(t.arrival, src.arrival)
	t.required = copyInto(t.required, src.required)
	t.load = copyInto(t.load, src.load)
	t.wire = copyInto(t.wire, src.wire)
	t.netSinks = copyInto(t.netSinks, src.netSinks)
	t.netDelays = copyInto(t.netDelays, src.netDelays)
	t.netGen = copyInto(t.netGen, src.netGen)
	t.pinOff = copyInto(t.pinOff, src.pinOff)
	t.pinN = copyInto(t.pinN, src.pinN)
	t.pinGen = copyInto(t.pinGen, src.pinGen)
	t.pinDelay = copyInto(t.pinDelay, src.pinDelay)
	t.gen = src.gen
	t.version, t.reqStale = src.version, src.reqStale
	t.Clock, t.CriticalDelay, t.Lateness = src.Clock, src.CriticalDelay, src.Lateness
}

// copyInto copies src over dst's array, first reallocating it to
// exactly src's capacity when it has less: a copy taken into a pooled
// Timing then has the room the next analysis or update into it would
// otherwise grow it to, and copies back and forth never grow either side.
func copyInto[T any](dst, src []T) []T {
	if cap(dst) < cap(src) {
		dst = make([]T, 0, cap(src))
	}
	return append(dst[:0], src...)
}

// clearGates clears s up to its capacity and returns it empty, so a
// recycled buffer keeps its array but none of the gates it held.
func clearGates(s []*network.Gate) []*network.Gate {
	clear(s[:cap(s)])
	return s[:0]
}

// analyzeInto runs the three-pass analysis in place, reusing the per-gate
// arrays (the incremental timer's threshold fallback re-analyzes into the
// same Timing so its array capacity amortizes across the run). order may
// be nil, in which case a fresh topological order is computed.
func (t *Timing) analyzeInto(clock float64, order []*network.Gate) {
	if order == nil {
		// Any valid topological order serves: every write below is
		// ID-indexed dataflow, so the values are order-independent.
		order = t.n.TopoOrderFast()
	}
	t.analyzeRequired(order, t.analyzeArrivals(clock, order))
}

// analyzeArrivals runs passes 1-2 of the analysis over order: nets,
// loads, arrivals, the clock, the critical delay and the lateness. The
// required times stay zero, and the view stale, until analyzeRequired
// runs pass 3; the incremental timer's arrivals-only fallback stops here.
// It returns the primary outputs it scanned.
func (t *Timing) analyzeArrivals(clock float64, order []*network.Gate) []*network.Gate {
	n := t.n
	t.bounds.densify(n.IDBound())
	bound := n.IDBound()
	t.version = 0
	t.reqStale = true
	// Reset: zero the reused prefix, then grow to the current bound. The
	// net arena and the pin table are re-laid from empty, each sized once
	// for every pin plus a sixteenth for the nets and gates an incremental
	// timer re-slots later: pass 1 gives each driver its net slots, and
	// each gate with fanins its pin slots as its first driver's net is
	// built.
	for i := range t.arrival {
		t.arrival[i] = Edge{}
		t.required[i] = Edge{}
		t.load[i] = 0
		t.wire[i] = wireEntry{}
		t.netGen[i] = 0
		t.pinN[i] = 0
	}
	pins := 0
	for _, g := range order {
		pins += g.NumFanins()
	}
	pins += pins / 16
	t.netSinks = slices.Grow(t.netSinks[:0], pins)
	t.netDelays = slices.Grow(t.netDelays[:0], pins)
	t.pinGen = slices.Grow(t.pinGen[:0], pins)
	t.pinDelay = slices.Grow(t.pinDelay[:0], pins)
	t.grow(bound)
	t.CriticalDelay = 0

	// Pass 1: driver loads (wire + sink pins + PO pad). The star models are
	// kept in the wire cache, and each pin's delay in the pin table, so
	// passes 2-3 (and the incremental timer) never rebuild them.
	for _, g := range order {
		t.load[g.ID()] = t.setNet(g) + t.padLoad(g)
	}

	// Pass 2: arrivals.
	var pinArr []Edge
	for _, g := range order {
		if g.IsInput() {
			t.arrival[g.ID()] = t.bounds.arrivalOf(g)
			continue
		}
		pinArr = pinArr[:0]
		for j, d := range g.Fanins() {
			pinArr = append(pinArr, t.arrival[d.ID()].add(t.PinWireDelay(d, g, j)))
		}
		t.arrival[g.ID()] = t.GateOutput(g, pinArr, t.load[g.ID()])
	}
	pos := n.Outputs()
	for _, po := range pos {
		if a := t.arrival[po.ID()].Max(); a > t.CriticalDelay {
			t.CriticalDelay = a
		}
	}
	t.Clock = clock
	if t.Clock <= 0 {
		t.Clock = t.CriticalDelay
	}
	t.Lateness = poLateness(t, pos)
	return pos
}

// analyzeRequired runs pass 3 over order, a topological order of the
// network as it stands, and its primary outputs pos: every required time
// from the outputs back, walking order in reverse. The minimum over a
// driver's sinks is exact, so any valid order gives the same bits.
func (t *Timing) analyzeRequired(order, pos []*network.Gate) {
	for _, g := range order {
		t.required[g.ID()] = Edge{inf, inf}
	}
	for _, po := range pos {
		t.required[po.ID()] = t.bounds.requiredOf(po, t.Clock)
	}
	for i := len(order) - 1; i >= 0; i-- {
		s := order[i]
		if s.IsInput() {
			continue
		}
		for j, d := range s.Fanins() {
			// requiredCandidate is the single source of the arc equation,
			// shared with the incremental timer's backward sweep.
			cand := requiredCandidate(t, s, t.PinWireDelay(d, s, j))
			cur := t.required[d.ID()]
			if cand.Rise < cur.Rise {
				cur.Rise = cand.Rise
			}
			if cand.Fall < cur.Fall {
				cur.Fall = cand.Fall
			}
			t.required[d.ID()] = cur
		}
	}
	t.reqStale = false
}

// padLoad returns the non-net load of g: the PO pad when g is a primary
// output, plus any exterior-load correction pinned in the bounds.
func (t *Timing) padLoad(g *network.Gate) float64 {
	l := t.bounds.extraLoadOf(g)
	if g.PO {
		l += POLoadPF
	}
	return l
}

// poLatenessOne is the single-output lateness term: the worse edge of
// arrival minus the pinned (or clock) required time. Analyze's PO scan
// and the incremental timer's rescan both reduce over it, so the guard
// metric has exactly one definition.
func poLatenessOne(t *Timing, po *network.Gate) float64 {
	a := t.Arrival(po)
	req := t.bounds.requiredOf(po, t.Clock)
	return math.Max(a.Rise-req.Rise, a.Fall-req.Fall)
}

// poLateness reduces the primary outputs to the worst boundary violation.
// A network without primary outputs has zero lateness.
func poLateness(t *Timing, pos []*network.Gate) float64 {
	lat := math.Inf(-1)
	for _, po := range pos {
		if l := poLatenessOne(t, po); l > lat {
			lat = l
		}
	}
	if math.IsInf(lat, -1) {
		return 0
	}
	return lat
}

type unateness int

const (
	inverting unateness = iota
	nonInverting
	nonUnate
)

func edgeBehavior(t logic.GateType) unateness {
	switch t {
	case logic.Inv, logic.Nand, logic.Nor:
		return inverting
	case logic.Buf, logic.And, logic.Or:
		return nonInverting
	default: // XOR family
		return nonUnate
	}
}

func (t *Timing) cellOf(g *network.Gate) *library.Cell {
	return t.Cell(g, g.SizeIdx)
}

// Cell returns the library cell that implements g at the given size
// index.
func (t *Timing) Cell(g *network.Gate, size int) *library.Cell {
	return t.lib.MustCell(g.Type, g.NumFanins(), size)
}

// NetInfo describes one (possibly hypothetical) net: the total load seen
// by the driver and the wire delay to each sink gate.
type NetInfo struct {
	Load      float64
	SinkDelay map[*network.Gate]float64
}

// ComputeNet builds the star model for driver d over an explicit sink
// list, which need not be d's current fanouts — optimizers pass
// hypothetical sink sets to evaluate rewiring moves before committing
// them. Unplaced terminals contribute no wire parasitics. The math lives
// in computeNetInto (scratch.go), shared with the arena path, and the
// per-sink map keeps the worst delay over duplicate sink entries.
func (t *Timing) ComputeNet(d *network.Gate, sinks []*network.Gate) NetInfo {
	var m NetModel
	t.computeNetInto(&m, d, sinks)
	info := NetInfo{Load: m.Load, SinkDelay: make(map[*network.Gate]float64, len(sinks))}
	for i, s := range sinks {
		if cur, ok := info.SinkDelay[s]; !ok || m.delays[i] > cur {
			info.SinkDelay[s] = m.delays[i]
		}
	}
	return info
}

// WireDelay returns the interconnect delay from driver d's out-pin to sink
// s under the current (committed) netlist. It never mutates the Timing —
// Analyze and the incremental timer keep the per-driver star cache
// complete, so concurrent scoring workers can all call it; an uncached
// driver (possible only for gates created after the analysis) recomputes
// on the fly.
func (t *Timing) WireDelay(d, s *network.Gate) float64 {
	if id := d.ID(); id < len(t.netGen) && t.netGen[id] != 0 {
		return t.sinkDelay(id, s)
	}
	return t.ComputeNet(d, d.Fanouts()).SinkDelay[s]
}

// PinWireDelay returns the wire delay into in-pin j of sink s, which
// driver d feeds: exactly WireDelay(d, s) at this moment, read from the
// pin table in O(1) when the pin's slot was written by d's current net
// and through WireDelay's scan otherwise (a pin rewired since its
// drivers' nets were last built, or a gate created since). Like
// WireDelay it never mutates the Timing, so concurrent scoring workers
// can call it.
func (t *Timing) PinWireDelay(d, s *network.Gate, j int) float64 {
	if k, ok := t.pinHit(d, s, j); ok {
		return t.pinDelay[k]
	}
	return t.WireDelay(d, s)
}

// pinHit returns the pin-table slot of in-pin j of sink s and whether
// driver d's current net wrote it.
func (t *Timing) pinHit(d, s *network.Gate, j int) (int, bool) {
	if id := s.ID(); id < len(t.pinN) && j < int(t.pinN[id]) {
		k := int(t.pinOff[id]) + j
		if tag, did := t.pinGen[k], d.ID(); tag != 0 && did < len(t.netGen) && tag == t.netGen[did] {
			return k, true
		}
	}
	return 0, false
}

// GateOutput computes the out-pin arrival of g from explicit per-pin input
// arrivals and an explicit output load, using g's current cell. It is pure
// with respect to the committed analysis, so optimizers can call it with
// hypothetical values.
func (t *Timing) GateOutput(g *network.Gate, pinArr []Edge, load float64) Edge {
	var w Edge // the worst causing-input times
	for _, pa := range pinArr {
		w = FoldPin(g.Type, w, pa)
	}
	dRise, dFall := t.cellOf(g).Delay(load)
	return Edge{Rise: w.Rise + dRise, Fall: w.Fall + dFall}
}

// FoldPin folds the arrival pa at one in-pin of a gate of type typ into
// acc, per output edge the latest causing-input time so far: an inverting
// gate's output rise is caused by an input fall and its fall by a rise, a
// non-unate gate's by either. A gate's out-pin arrival is its cell's
// delay added to the fold of all its pins from the zero Edge. Each edge is
// a running maximum that only a strictly later time replaces, so folding
// a gate's pins in any order, in any grouping, gives the same bits: the
// scoring kernels fold the pins a candidate cannot change once and the
// rest per candidate.
func FoldPin(typ logic.GateType, acc, pa Edge) Edge {
	switch edgeBehavior(typ) {
	case inverting:
		pa.Rise, pa.Fall = pa.Fall, pa.Rise
	case nonUnate: // both edges take pa.Max()
		if pa.Rise > pa.Fall {
			pa.Fall = pa.Rise
		} else {
			pa.Rise = pa.Fall
		}
	}
	if pa.Rise > acc.Rise {
		acc.Rise = pa.Rise
	}
	if pa.Fall > acc.Fall {
		acc.Fall = pa.Fall
	}
	return acc
}

// Version identifies the network state this view times: two reads of
// views with the same nonzero version see the same timing bit for bit
// (see Incremental). It is 0 for a view no Incremental timer manages. It
// panics on a view whose required times are pending (after
// Incremental.UpdateArrivals, before the next Update): such a view names
// no fully timed state, and its slacks are stale.
func (t *Timing) Version() uint64 {
	t.mustBeTimed()
	return t.version
}

// mustBeTimed panics when t's required times are pending; see Version.
func (t *Timing) mustBeTimed() {
	if t.reqStale {
		panic("sta: required times pending after UpdateArrivals; call Update before reading slacks")
	}
}

// Network returns the network this analysis describes.
func (t *Timing) Network() *network.Network { return t.n }

// Bounds returns the pinned boundary conditions of this analysis, or nil
// for a whole-network analysis.
func (t *Timing) Bounds() *Bounds { return t.bounds }

// SinkRequired returns the required time sink s imposes on a fanin driver
// reached through wire delay w — the arc equation of the backward pass.
// Region extraction uses it to fold a boundary gate's exterior sink arcs
// into one pinned required time.
func (t *Timing) SinkRequired(s *network.Gate, w float64) Edge {
	return requiredCandidate(t, s, w)
}

// Arrival returns the out-pin arrival time of g.
func (t *Timing) Arrival(g *network.Gate) Edge {
	if id := g.ID(); id < len(t.arrival) {
		return t.arrival[id]
	}
	return Edge{}
}

// Required returns the out-pin required time of g. Gates that reach no
// primary output have +inf required time.
func (t *Timing) Required(g *network.Gate) Edge {
	if id := g.ID(); id < len(t.required) {
		return t.required[id]
	}
	return Edge{}
}

// Load returns the total output load of g in pF.
func (t *Timing) Load(g *network.Gate) float64 {
	if id := g.ID(); id < len(t.load) {
		return t.load[id]
	}
	return 0
}

// Slack returns the worst-edge slack of g.
func (t *Timing) Slack(g *network.Gate) float64 {
	a, r := t.Arrival(g), t.Required(g)
	// The builtin min: math.Min's value for every operand but NaN, which
	// no arrival or required time is, without its call.
	return min(r.Rise-a.Rise, r.Fall-a.Fall)
}

// WorstSlack returns the minimum slack over all gates.
func (t *Timing) WorstSlack() float64 {
	worst := inf
	t.n.Gates(func(g *network.Gate) {
		if s := t.Slack(g); s < worst {
			worst = s
		}
	})
	return worst
}

// CriticalPath returns the gates of one critical path, from a primary
// input to the worst primary output.
func (t *Timing) CriticalPath() []*network.Gate {
	var worst *network.Gate
	for _, po := range t.n.Outputs() {
		if worst == nil || t.Arrival(po).Max() > t.Arrival(worst).Max() {
			worst = po
		}
	}
	if worst == nil {
		return nil
	}
	var path []*network.Gate
	g := worst
	for {
		path = append(path, g)
		if g.IsInput() || g.NumFanins() == 0 {
			break
		}
		// Follow the fanin whose pin arrival dominates.
		var best *network.Gate
		bestArr := -inf
		for _, d := range g.Fanins() {
			a := t.Arrival(d).Max() + t.WireDelay(d, g)
			if a > bestArr {
				bestArr = a
				best = d
			}
		}
		g = best
	}
	// Reverse to PI→PO order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}
