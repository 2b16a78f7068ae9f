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
// with the driver's total load and the wire delay to each entry of the
// sink list it was built over, stored in reusable slices instead of a
// freshly allocated map. It keeps no gate pointer.
type NetModel struct {
	// Load is the total capacitance seen by the driver in pF.
	Load float64

	delays []float64

	// geometry scratch for computeNetInto, kept so that Recap can
	// re-evaluate the net under new sink pin capacitances
	pts    []wire.Point
	caps   []float64
	star   wire.Star
	placed bool
	pad    float64 // the load Net adds past the star: the PO pad
}

// SinkDelay returns the wire delay to sink s of the net built over sinks
// — the worst over duplicate entries when s appears with multiplicity,
// matching NetInfo.SinkDelay — or 0 when s is not a sink of the net. Sink
// lists are small (nets average a few pins), so a linear scan beats any
// map.
func (m *NetModel) SinkDelay(sinks []*network.Gate, s *network.Gate) float64 {
	d, found := 0.0, false
	for i, t := range sinks {
		if t == s && (!found || m.delays[i] > d) {
			d = m.delays[i]
			found = true
		}
	}
	return d
}

// Delays returns the wire delay to each entry of the net's sink list, in
// sink-list order. A sink fed through several pins has one entry per pin,
// and all of them hold the same delay (one position, one pin
// capacitance), so any one is the sink's SinkDelay.
func (m *NetModel) Delays() []float64 { return m.delays }

// Recap sets the pin capacitance of the sink entries at the indexes idx
// to c and re-evaluates the net's load (Net's pad included) and wire
// delays over its unchanged geometry: bit for bit what Net returns for
// the same sinks with those capacitances, without rebuilding the star.
// A resize frame tries the resized gate's sizes on its drivers' nets this
// way.
func (m *NetModel) Recap(idx []int32, c float64) {
	for _, i := range idx {
		m.caps[i] = c
	}
	m.evaluate()
	m.Load += m.pad
}

// computeNetInto is ComputeNet writing into a reusable NetModel: the same
// star model over an explicit (possibly hypothetical) sink list, with the
// same load and per-sink delays bit for bit, and no steady-state
// allocation.
func (t *Timing) computeNetInto(m *NetModel, d *network.Gate, sinks []*network.Gate) {
	m.pts = m.pts[:0]
	m.caps = m.caps[:0]
	m.placed = d.Placed
	for _, s := range sinks {
		c := 0.0
		if !s.IsInput() {
			c = t.cellOf(s).InputCap
		}
		m.pts = append(m.pts, wire.Point{X: s.X, Y: s.Y})
		m.caps = append(m.caps, c)
		if !s.Placed {
			m.placed = false
		}
	}
	if m.placed && len(sinks) > 0 {
		wire.BuildInto(&m.star, wire.Point{X: d.X, Y: d.Y}, m.pts)
	}
	m.evaluate()
}

// evaluate computes the net's load and wire delays from its geometry and
// sink pin capacitances.
func (m *NetModel) evaluate() {
	m.Load = 0
	m.delays = m.delays[:0]
	switch {
	case len(m.caps) == 0:
	case !m.placed:
		// Pre-placement: pin caps only, zero wire.
		for _, c := range m.caps {
			m.Load += c
			m.delays = append(m.delays, 0)
		}
	default:
		m.delays, m.Load = m.star.ElmoreAll(m.caps, m.delays)
	}
}

// Scratch is one worker's arena. It is not safe for concurrent use; a
// scoring pool gives every worker its own.
type Scratch struct {
	epoch uint32
	bound int

	// MarkSeen's visited set and the position table, by gate ID: a gate
	// is seen in this evaluation when seenStamp[id] is the epoch, and
	// pos[id] is then its position, -1 until SetPos records one.
	seenStamp []uint32
	pos       []int32

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
		sc.pos = append(sc.pos, make([]int32, bound-sc.bound)...)
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
}

// MarkSeen adds g to the evaluation's visited set, reporting whether it
// was newly added.
func (sc *Scratch) MarkSeen(g *network.Gate) bool {
	id := g.ID()
	if sc.seenStamp[id] == sc.epoch {
		return false
	}
	sc.seenStamp[id] = sc.epoch
	sc.pos[id] = -1
	return true
}

// SetPos records i as the position of g, which MarkSeen added in this
// evaluation: the caller's index of g in its own per-evaluation arrays,
// which turns "find this sink among the evaluation's gates" from a scan
// into one read.
func (sc *Scratch) SetPos(g *network.Gate, i int) {
	sc.pos[g.ID()] = int32(i)
}

// Pos returns the position SetPos recorded for g in this evaluation, or
// -1 when it recorded none.
func (sc *Scratch) Pos(g *network.Gate) int {
	if id := g.ID(); sc.seenStamp[id] == sc.epoch {
		return int(sc.pos[id])
	}
	return -1
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
	tm.computeNetInto(m, d, sinks)
	m.pad = tm.padLoad(d)
	m.Load += m.pad
	return m
}

// dropGates clears every gate pointer the arena keeps for reuse: the
// caller buffers Hood, SinksA and SinksB, each up to its capacity. It
// costs O(capacity), once per run.
func (sc *Scratch) dropGates() {
	sc.Hood = clearGates(sc.Hood)
	sc.SinksA = clearGates(sc.SinksA)
	sc.SinksB = clearGates(sc.SinksB)
}
