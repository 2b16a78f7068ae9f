// Extraction and stitching: a Region becomes a standalone subnetwork with
// pinned boundary timing, and an (optimized) subnetwork replaces its
// region in the full network.
//
// Extract and Stitch are exact inverses on an unmodified subnetwork: the
// stitched-back network is structurally and functionally identical to the
// original (new gate objects, same names at every boundary), so
// re-stitching a Snapshot taken before a Stitch reverts it.

package region

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/sta"
)

// Extracted is one region lifted out as a standalone subnetwork.
type Extracted struct {
	Region *Region
	// Net is the subnetwork: one primary input per boundary driver (same
	// name, same placement), one gate per interior gate (same name, type,
	// size, placement), primary outputs marked on every boundary output.
	Net *network.Network
	// Bounds pins the exterior timing on Net: arrivals at the boundary
	// inputs, exterior required times and load corrections at the
	// boundary outputs, all frozen from the global analysis Extract ran
	// under.
	Bounds *sta.Bounds
	// BoundaryInputs and BoundaryOutputs count the frozen interface.
	BoundaryInputs  int
	BoundaryOutputs int

	// order and interior are the interior-local topological order and
	// membership set Extract walked; Snapshot reuses them so capturing a
	// rollback image does not recompute either.
	order    []*network.Gate
	interior map[*network.Gate]bool
}

// Extract lifts region r out of n under the global analysis tm. The
// subnetwork's boundary conditions are pinned so that analyzing it with
// sta.AnalyzeBounded(sub, lib, tm.Clock, e.Bounds) reproduces the global
// arrivals, required times, and loads of the interior exactly (same star
// geometry, same exterior arcs folded into the pinned values).
func Extract(n *network.Network, tm *sta.Timing, r *Region) *Extracted {
	interior := make(map[*network.Gate]bool, len(r.Interior))
	for _, g := range r.Interior {
		if g.IsInput() {
			panic("region: primary input in region interior: " + g.String())
		}
		interior[g] = true
	}

	sub := network.New(n.Name())
	b := &sta.Bounds{
		PIArrival:  make(map[*network.Gate]sta.Edge),
		PORequired: make(map[*network.Gate]sta.Edge),
		POLoad:     make(map[*network.Gate]float64),
	}
	e := &Extracted{Region: r, Net: sub, Bounds: b}
	m := make(map[*network.Gate]*network.Gate, len(r.Interior))

	// Interior gates in interior-local topological order.
	inInterior := func(g *network.Gate) bool { return interior[g] }
	e.order = network.TopoOrderAmong(r.Interior, inInterior)
	e.interior = interior
	var fanins []*network.Gate
	for _, g := range e.order {
		fanins = fanins[:0]
		for _, f := range g.Fanins() {
			if sf := m[f]; sf != nil {
				fanins = append(fanins, sf)
				continue
			}
			if interior[f] {
				panic("region: interior fanin not yet instantiated: " + f.String())
			}
			pi := sub.AddInput(f.Name())
			pi.X, pi.Y, pi.Placed = f.X, f.Y, f.Placed
			b.PIArrival[pi] = tm.Arrival(f)
			m[f] = pi
			fanins = append(fanins, pi)
			e.BoundaryInputs++
		}
		sg := sub.AddGate(g.Name(), g.Type, fanins...)
		sg.SizeIdx = g.SizeIdx
		sg.X, sg.Y, sg.Placed = g.X, g.Y, g.Placed
		m[g] = sg
	}

	// Boundary outputs: interior gates the exterior observes. Pin the
	// exterior component of their required time (clock if a true PO, min
	// over exterior sink arcs) and correct their load for the exterior
	// sinks the subnetwork cannot see (minus the PO pad the subnetwork
	// will add for the PO mark itself).
	inf := math.MaxFloat64
	var intSinks []*network.Gate
	for _, g := range r.Interior {
		req := sta.Edge{Rise: inf, Fall: inf}
		if g.PO {
			req = sta.Edge{Rise: tm.Clock, Fall: tm.Clock}
		}
		exterior := false
		intSinks = intSinks[:0]
		for _, s := range g.Fanouts() {
			if interior[s] {
				intSinks = append(intSinks, s)
				continue
			}
			exterior = true
			cand := tm.SinkRequired(s, tm.WireDelay(g, s))
			if cand.Rise < req.Rise {
				req.Rise = cand.Rise
			}
			if cand.Fall < req.Fall {
				req.Fall = cand.Fall
			}
		}
		if !exterior && !g.PO {
			continue
		}
		sg := m[g]
		sub.MarkOutput(sg)
		b.PORequired[sg] = req
		// The subnetwork computes its own star model over the interior
		// sinks; the correction makes the total load match the global one
		// (tm.Load already includes the pad when g is a true PO, and the
		// subnetwork adds a pad for the PO mark, hence the subtraction).
		intLoad := tm.ComputeNet(g, intSinks).Load
		b.POLoad[sg] = tm.Load(g) - intLoad - sta.POLoadPF
		e.BoundaryOutputs++
	}
	return e
}

// Snapshot is a compact structural record of one region, captured from
// the live network before its interior is replaced. It stores exactly
// what a revert needs — names, types, sizes, placement, PO marks, and
// fanin wiring as dense indices — without building Gate objects or name
// maps, so capturing costs a few slice passes. Net materializes the
// record into a standalone subnetwork (gate-for-gate identical to the
// Net of a bounds-free Extract) only when a revert actually happens.
type Snapshot struct {
	gates []snapGate
}

type snapGate struct {
	name       string
	typ        logic.GateType
	sizeIdx    int
	x, y       float64
	placed, po bool
	fanins     []int32 // indices into gates; -1 never appears (inputs have none)
}

// Snapshot captures the rollback image of e's region, reusing the
// topological order and membership set Extract already computed. The
// interior must still be in place (Extract never mutates n).
func (e *Extracted) Snapshot() *Snapshot {
	order, interior := e.order, e.interior
	s := &Snapshot{gates: make([]snapGate, 0, len(order)+len(order)/2)}
	idx := make(map[*network.Gate]int32, len(order))
	faninIdx := make([]int32, 0, 4*len(order))
	for _, g := range order {
		base := len(faninIdx)
		for _, f := range g.Fanins() {
			fi, ok := idx[f]
			if !ok {
				if interior[f] {
					panic("region: interior fanin not yet captured: " + f.String())
				}
				fi = int32(len(s.gates))
				idx[f] = fi
				s.gates = append(s.gates, snapGate{
					name: f.Name(), typ: logic.Input,
					x: f.X, y: f.Y, placed: f.Placed,
				})
			}
			faninIdx = append(faninIdx, fi)
		}
		gi := int32(len(s.gates))
		idx[g] = gi
		s.gates = append(s.gates, snapGate{
			name: g.Name(), typ: g.Type, sizeIdx: g.SizeIdx,
			x: g.X, y: g.Y, placed: g.Placed,
			fanins: faninIdx[base:len(faninIdx):len(faninIdx)],
		})
	}
	for _, g := range order {
		exterior := g.PO
		if !exterior {
			for _, sk := range g.Fanouts() {
				if !interior[sk] {
					exterior = true
					break
				}
			}
		}
		if exterior {
			s.gates[idx[g]].po = true
		}
	}
	return s
}

// Net materializes the snapshot into a standalone subnetwork, the
// rollback image a revert re-stitches.
func (s *Snapshot) Net(name string) *network.Network {
	sub := network.New(name)
	built := make([]*network.Gate, len(s.gates))
	var fanins []*network.Gate
	for i := range s.gates {
		sg := &s.gates[i]
		var g *network.Gate
		if sg.typ == logic.Input {
			g = sub.AddInput(sg.name)
		} else {
			fanins = fanins[:0]
			for _, fi := range sg.fanins {
				fanins = append(fanins, built[fi])
			}
			g = sub.AddGate(sg.name, sg.typ, fanins...)
			// The rollback image restores sizes by direct write. That is
			// safe for network snapshots: sub is built right here, so each
			// write follows its gate's AddGate, a structural mutation.
			g.SizeIdx = sg.sizeIdx
		}
		g.X, g.Y, g.Placed = sg.x, sg.y, sg.placed
		if sg.po {
			sub.MarkOutput(g)
		}
		built[i] = g
	}
	return sub
}

// Stitch replaces the gates of oldInterior in n with the logic of sub:
// fresh gates are instantiated for every non-input subnetwork gate (wired
// to the boundary drivers resolved *by name*, so stitches of sibling
// regions may run in any order), the fanouts and PO flags of every
// subnetwork primary output transfer from the like-named old gate to its
// replacement, the old interior is deleted, and the replacements take the
// subnetwork names wherever those are free (always, for boundary
// outputs). It returns the installed gates — the oldInterior of a
// subsequent Stitch that wants to replace this one (a revert).
//
// Stitch panics when sub's boundary does not match n (a missing boundary
// driver or output name), which indicates a partitioning bug. It never
// runs a global traversal of n, so it works — deliberately — even when n
// is temporarily cyclic during a multi-region rollback.
func Stitch(n *network.Network, sub *network.Network, oldInterior []*network.Gate) []*network.Gate {
	// One coalesced event batch for the whole stitch: observers that opt
	// in see the add/transfer/remove storm as a single delivery.
	n.BeginBatch()
	defer n.EndBatch()

	// Rename the old interior out of the way up front: the old holders are
	// the only reason the replacement names would collide, so with them on
	// scratch names every replacement can be created directly under its
	// final name instead of minting a fresh name and renaming after the
	// removal. The scratch names are NUL-prefixed — impossible in a
	// netlist, unique by gate ID — and every holder dies before Stitch
	// returns (the whole old interior is removed below).
	oldByName := make(map[string]*network.Gate, len(oldInterior))
	var scratch []byte
	for _, g := range oldInterior {
		oldByName[g.Name()] = g
		scratch = append(scratch[:0], '\x00')
		n.Rename(g, string(strconv.AppendInt(scratch, int64(g.ID()), 10)))
	}

	order := sub.TopoOrder()
	// Subnetwork gate IDs are dense, so the sub→global correspondence is
	// an ID-indexed slice rather than a pointer-keyed map.
	m := make([]*network.Gate, sub.IDBound())
	installed := make([]*network.Gate, 0, len(order))
	var fanins []*network.Gate
	for _, sg := range order {
		if sg.IsInput() {
			d := n.FindGate(sg.Name())
			if d == nil {
				panic(fmt.Sprintf("region: boundary driver %q missing from network", sg.Name()))
			}
			m[sg.ID()] = d
			continue
		}
		fanins = fanins[:0]
		for _, f := range sg.Fanins() {
			fanins = append(fanins, m[f.ID()])
		}
		// Names are restored best-effort: a name the optimizer minted
		// inside the subnetwork can collide with an unrelated global gate,
		// in which case a fresh stitch name stands. Boundary outputs must
		// get their names back (the functional interface is name-keyed).
		name := sg.Name()
		if n.FindGate(name) != nil {
			if sg.PO {
				panic(fmt.Sprintf("region: boundary output name %q already taken in network", name))
			}
			name = n.FreshName(name + "_st")
		}
		ng := n.AddGate(name, sg.Type, fanins...)
		// Direct writes right after AddGate: the add is a structural
		// mutation, so n's next snapshot recaptures and sees them.
		ng.SizeIdx = sg.SizeIdx
		ng.X, ng.Y, ng.Placed = sg.X, sg.Y, sg.Placed
		m[sg.ID()] = ng
		installed = append(installed, ng)
	}

	// Hand each boundary output's observers over to its replacement. The
	// old gate keeps only sinks inside the old interior (transferred too,
	// then deleted with it — TransferFanouts moves every sink, and the
	// old interior dies as a unit below).
	for _, sg := range order {
		if sg.IsInput() || !sg.PO {
			continue
		}
		old := oldByName[sg.Name()]
		if old == nil {
			panic(fmt.Sprintf("region: boundary output %q is not an old-interior gate", sg.Name()))
		}
		n.TransferFanouts(old, m[sg.ID()])
	}

	removeInterior(n, oldInterior)
	return installed
}

// removeInterior deletes the old interior, peeling fanout-free gates until
// none remain (the interior is a DAG whose external observers were all
// transferred away, so the peel always terminates).
func removeInterior(n *network.Network, interior []*network.Gate) {
	const inSet, queued = 1, 2 // flag bits: interior member, already scheduled
	flags := make(map[*network.Gate]uint8, len(interior))
	for _, g := range interior {
		flags[g] = inSet
	}
	var ready []*network.Gate
	for _, g := range interior {
		if g.NumFanouts() == 0 && !g.PO {
			ready = append(ready, g)
			flags[g] = inSet | queued
		}
	}
	removed := 0
	var fanins []*network.Gate
	for len(ready) > 0 {
		g := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		fanins = append(fanins[:0], g.Fanins()...)
		n.RemoveGate(g)
		removed++
		for _, f := range fanins {
			if flags[f] == inSet && f.NumFanouts() == 0 && !f.PO {
				ready = append(ready, f)
				flags[f] = inSet | queued
			}
		}
	}
	if removed != len(interior) {
		panic(fmt.Sprintf("region: %d of %d old-interior gates not removable (still observed)",
			len(interior)-removed, len(interior)))
	}
}
