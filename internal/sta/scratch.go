// Scoring arenas: reusable, epoch-stamped scratch state for the
// optimizers' hypothetical evaluations (opt.EvalSwapScratch,
// sizing.Frame).
// Those evaluations only *read* the committed Timing; their working state
// — hypothetical net models, driver arrivals, neighborhood sets, pin and
// slack buffers — used to be freshly allocated maps and slices on every
// single candidate, which made candidate scoring both allocation-bound
// and unshardable. A Scratch replaces all of it with gate-ID-indexed
// arrays invalidated by bumping one epoch counter, so a steady-state
// evaluation allocates nothing and each worker of a scoring pool owns one
// Scratch with no sharing.
//
// Gate IDs are dense (network.IDBound), so "map from gate" becomes "array
// indexed by g.ID() plus a stamp array": an entry is live only when its
// stamp equals the current epoch. Begin bumps the epoch — an O(1) clear.
package sta

import (
	"math"
	"sync"

	"repro/internal/network"
	"repro/internal/wire"
)

// scratchPool backs GetScratch/PutScratch — the one shared pool the
// scoring engine's workers borrow their arenas from (opt.NewEngine), so
// runs reuse grown arrays instead of paying the warm-up again.
var scratchPool = sync.Pool{New: func() interface{} { return NewScratch() }}

// GetScratch borrows an arena from the shared pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns an arena borrowed with GetScratch. A returned arena
// keeps its buffers but no gate pointer (see dropGates), so the pool
// never keeps a finished network reachable.
func PutScratch(sc *Scratch) {
	sc.dropGates()
	scratchPool.Put(sc)
}

// NetModel is the arena form of NetInfo: one (possibly hypothetical) net
// with the driver's total load and per-sink wire delays, stored in
// reusable parallel slices instead of a freshly allocated map.
type NetModel struct {
	// Load is the total capacitance seen by the driver in pF.
	Load float64

	sinks  []*network.Gate
	delays []float64

	// geometry scratch for computeNetInto
	pts  []wire.Point
	caps []float64
	star wire.Star
}

// SinkDelay returns the wire delay to sink s — the worst over duplicate
// entries when s appears with multiplicity, matching NetInfo.SinkDelay —
// or 0 when s is not a sink of the net. Sink lists are small (nets
// average a few pins), so a linear scan beats any map.
func (m *NetModel) SinkDelay(s *network.Gate) float64 {
	d, found := 0.0, false
	for i, t := range m.sinks {
		if t == s && (!found || m.delays[i] > d) {
			d = m.delays[i]
			found = true
		}
	}
	return d
}

// computeNetInto is ComputeNet writing into a reusable NetModel: the same
// star model over an explicit (possibly hypothetical) sink list, with the
// same load and per-sink delays bit for bit, and no steady-state
// allocation. Sink pin capacitances honor the scratch's size override
// (sc may be nil).
func (t *Timing) computeNetInto(sc *Scratch, m *NetModel, d *network.Gate, sinks []*network.Gate) {
	m.Load = 0
	m.sinks = append(m.sinks[:0], sinks...)
	m.delays = m.delays[:0]
	if len(sinks) == 0 {
		return
	}
	m.pts = m.pts[:0]
	m.caps = m.caps[:0]
	placed := d.Placed
	for _, s := range sinks {
		c := 0.0
		if !s.IsInput() {
			if sc != nil {
				c = t.lib.MustCell(s.Type, s.NumFanins(), sc.sizeOf(s)).InputCap
			} else {
				c = t.cellOf(s).InputCap
			}
		}
		m.pts = append(m.pts, wire.Point{X: s.X, Y: s.Y})
		m.caps = append(m.caps, c)
		if !s.Placed {
			placed = false
		}
	}
	if !placed {
		// Pre-placement: pin caps only, zero wire.
		for i := range sinks {
			m.Load += m.caps[i]
			m.delays = append(m.delays, 0)
		}
		return
	}
	wire.BuildInto(&m.star, wire.Point{X: d.X, Y: d.Y}, m.pts)
	m.Load = m.star.TotalLoad(m.caps)
	m.delays = m.star.ElmoreAll(m.caps, m.delays)
}

// Scratch is one worker's arena. It is not safe for concurrent use; a
// scoring pool gives every worker its own.
type Scratch struct {
	epoch uint32
	bound int

	// Size override: the one hypothetical the sizing evaluator needs.
	// Instead of flipping Gate.SizeIdx in place — a data race once
	// scoring runs on several workers, since a neighbor's evaluation
	// reads the same field — the evaluator records the hypothetical size
	// here and every scratch-aware Timing accessor consults it.
	ovrGate *network.Gate
	ovrSize int

	seenStamp []uint32 // MarkSeen's visited set, by gate ID

	// nets is a pool of pointers (not values): a NetModel handed out by
	// Net stays valid even after later Net calls grow the pool.
	nets     []*NetModel
	netsUsed int

	// Reusable buffers for callers. Contracts: truncate with [:0] at the
	// start of each use; contents survive only within one evaluation.
	Pins   []Edge
	Slacks []float64
	Before []float64
	Hood   []*network.Gate
	SinksA []*network.Gate
	SinksB []*network.Gate
}

// NewScratch returns an empty arena; its arrays grow on first Begin.
func NewScratch() *Scratch { return &Scratch{} }

// Begin opens a new evaluation against tm: previous per-gate entries die
// (epoch bump) and the stamp array is grown to cover every gate ID of
// tm's network, including gates created since the last call. Every
// hypothetical evaluation reads slacks, so it panics when tm's required
// times are pending (see Timing.Version).
func (sc *Scratch) Begin(tm *Timing) {
	tm.mustBeTimed()
	bound := tm.n.IDBound()
	if bound > sc.bound {
		sc.seenStamp = append(sc.seenStamp, make([]uint32, bound-sc.bound)...)
		sc.bound = bound
	}
	if sc.epoch == math.MaxUint32 {
		// Epoch wraparound: stale stamps could alias the new epoch, so
		// clear them once every 2^32 evaluations.
		clear(sc.seenStamp)
		sc.epoch = 0
	}
	sc.epoch++
	sc.netsUsed = 0
	sc.ovrGate = nil
}

// OverrideSize makes the rest of this evaluation (until the next Begin)
// see g implemented at the given size index: GateOutputSc uses the
// override cell's delay and Net charges its input capacitance to g's
// fanin nets. g itself is never written.
func (sc *Scratch) OverrideSize(g *network.Gate, sizeIdx int) {
	sc.ovrGate = g
	sc.ovrSize = sizeIdx
}

// sizeOf resolves g's effective size under the evaluation's override.
func (sc *Scratch) sizeOf(g *network.Gate) int {
	if g == sc.ovrGate {
		return sc.ovrSize
	}
	return g.SizeIdx
}

// GateOutputSc is GateOutput under the scratch's size override.
func (t *Timing) GateOutputSc(sc *Scratch, g *network.Gate, pinArr []Edge, load float64) Edge {
	cell := t.lib.MustCell(g.Type, g.NumFanins(), sc.sizeOf(g))
	return t.gateOutputCell(cell, g, pinArr, load)
}

// MarkSeen adds g to the evaluation's visited set, reporting whether it
// was newly added.
func (sc *Scratch) MarkSeen(g *network.Gate) bool {
	id := g.ID()
	if sc.seenStamp[id] == sc.epoch {
		return false
	}
	sc.seenStamp[id] = sc.epoch
	return true
}

// Net computes the star model of driver d over the given hypothetical
// sink list into a pooled NetModel, valid until the next Begin. Unlike
// ComputeNet, the returned load already includes the PO pad capacitance
// when d is a primary output — every scoring caller wants it.
func (sc *Scratch) Net(tm *Timing, d *network.Gate, sinks []*network.Gate) *NetModel {
	if sc.netsUsed == len(sc.nets) {
		sc.nets = append(sc.nets, &NetModel{})
	}
	m := sc.nets[sc.netsUsed]
	sc.netsUsed++
	tm.computeNetInto(sc, m, d, sinks)
	m.Load += tm.padLoad(d)
	return m
}

// dropGates clears every gate pointer the arena keeps for reuse: the
// size override, the caller buffers Hood, SinksA and SinksB, and every
// pooled NetModel's sinks, each up to its capacity. It costs
// O(capacity), once per run.
func (sc *Scratch) dropGates() {
	sc.ovrGate = nil
	sc.Hood = clearGates(sc.Hood)
	sc.SinksA = clearGates(sc.SinksA)
	sc.SinksB = clearGates(sc.SinksB)
	for _, m := range sc.nets {
		m.sinks = clearGates(m.sinks)
	}
}
