// Package region partitions a mapped, placed network into timing regions,
// lifts a region out as a standalone subnetwork with pinned boundary
// timing (Extract) and stitches a subnetwork back (Stitch).
//
// No optimizer path uses it (DESIGN.md §3b): the package is kept only for
// cmd/bench's region.roundtrip_ms probe, and goes when that probe does.
//
// A Partition clusters the near-critical gates — every gate within a
// slack window of the worst slack — together with a few levels of their
// fanin/fanout cones into connected regions.
//
// # Boundary semantics
//
// A region's interior is a set of non-input gates. Everything else is
// exterior and frozen from the region's point of view:
//
//   - a boundary input is an exterior gate (or primary input) driving an
//     interior pin; it appears in the subnetwork as a primary input with a
//     pinned arrival time, and the region may re-wire which interior pins
//     it feeds but never change the gate itself;
//   - a boundary output is an interior gate that the exterior observes — a
//     primary output of the design, or a driver of at least one exterior
//     pin. It appears in the subnetwork as a primary output with a pinned
//     exterior required time and an exterior-load correction, and its
//     logic function must be preserved by any region transformation (the
//     optimizer's symmetry-based moves guarantee exactly that).
//
// Interiors of distinct regions are disjoint, so region optimizations
// commute and their stitches can run in any order.
package region

import (
	"sort"

	"repro/internal/network"
	"repro/internal/sta"
)

// DefaultWindow is the slack window, as a fraction of the clock, within
// which a gate seeds a region. It deliberately covers the optimizer's
// widest candidate margin (the 10 % relaxation band) so a region-local
// phase sees the same sites a global phase would.
const DefaultWindow = 0.10

// DefaultGrowDepth is how many levels regions grow beyond their seeds
// over fanin and fanout edges, giving the optimizer room to move slack
// around the critical neighborhood.
const DefaultGrowDepth = 3

// Options controls partitioning.
type Options struct {
	// Window is the seeding slack threshold as a fraction of the clock:
	// gates with slack ≤ worst + Window×Clock seed regions. <= 0 selects
	// DefaultWindow.
	Window float64
	// GrowDepth is the number of fanin/fanout levels grown around the
	// seeds. <= 0 selects DefaultGrowDepth.
	GrowDepth int
	// MaxRegions caps the number of regions: when the connected clusters
	// exceed it, the smallest are merged (a region need not be connected
	// for correctness, only for locality). 0 means no cap.
	MaxRegions int
}

func (o *Options) fill() {
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.GrowDepth <= 0 {
		o.GrowDepth = DefaultGrowDepth
	}
}

// Region is one cluster of interior gates, sorted by dense gate ID.
type Region struct {
	Interior []*network.Gate
}

// Partition is the result of Build.
type Partition struct {
	Regions []*Region
	// Seeds is the number of gates inside the slack window.
	Seeds int
}

// Covered returns the total number of interior gates across all regions.
func (p *Partition) Covered() int {
	c := 0
	for _, r := range p.Regions {
		c += len(r.Interior)
	}
	return c
}

// Build partitions n into timing regions under the analysis tm: gates
// within the slack window seed a multi-source BFS over fanin and fanout
// edges (primary inputs are never interior), and the reached set is split
// into connected clusters. The result is deterministic — clusters and
// their interiors are ordered by dense gate ID.
func Build(n *network.Network, tm *sta.Timing, o Options) *Partition {
	o.fill()
	threshold := tm.WorstSlack() + o.Window*tm.Clock

	bound := n.IDBound()
	depth := make([]int, bound)
	for i := range depth {
		depth[i] = -1
	}
	var queue []*network.Gate
	p := &Partition{}
	n.Gates(func(g *network.Gate) {
		if g.IsInput() {
			return
		}
		if tm.Slack(g) <= threshold {
			depth[g.ID()] = 0
			queue = append(queue, g)
			p.Seeds++
		}
	})

	// Multi-source BFS over undirected (fanin ∪ fanout) adjacency, depth
	// capped at GrowDepth. Seed order is creation order, so the visit
	// order — and with it nothing at all, since depth labels are
	// order-independent — is deterministic.
	members := append([]*network.Gate(nil), queue...)
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		d := depth[g.ID()]
		if d == o.GrowDepth {
			continue
		}
		visit := func(x *network.Gate) {
			if x.IsInput() || depth[x.ID()] >= 0 {
				return
			}
			depth[x.ID()] = d + 1
			queue = append(queue, x)
			members = append(members, x)
		}
		for _, f := range g.Fanins() {
			visit(f)
		}
		for _, s := range g.Fanouts() {
			visit(s)
		}
	}

	// Split the member set into connected clusters, walking gates in ID
	// order so cluster numbering is deterministic.
	inMember := make([]bool, bound)
	for _, g := range members {
		inMember[g.ID()] = true
	}
	clustered := make([]bool, bound)
	var clusters []*Region
	n.Gates(func(g *network.Gate) {
		if !inMember[g.ID()] || clustered[g.ID()] {
			return
		}
		r := &Region{}
		stack := []*network.Gate{g}
		clustered[g.ID()] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			r.Interior = append(r.Interior, x)
			walk := func(y *network.Gate) {
				if y.ID() < bound && inMember[y.ID()] && !clustered[y.ID()] {
					clustered[y.ID()] = true
					stack = append(stack, y)
				}
			}
			for _, f := range x.Fanins() {
				walk(f)
			}
			for _, s := range x.Fanouts() {
				walk(s)
			}
		}
		sortByID(r.Interior)
		clusters = append(clusters, r)
	})

	if o.MaxRegions > 0 && len(clusters) > o.MaxRegions {
		clusters = mergeSmallest(clusters, o.MaxRegions)
	}
	p.Regions = clusters
	return p
}

// mergeSmallest packs clusters into at most max regions, assigning each
// cluster (largest first) to the currently smallest bucket — a balanced,
// deterministic bin packing. Merged interiors are re-sorted by ID.
func mergeSmallest(clusters []*Region, max int) []*Region {
	ordered := append([]*Region(nil), clusters...)
	// Sort by size descending, first-gate ID ascending as the tie-break.
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if len(a.Interior) != len(b.Interior) {
			return len(a.Interior) > len(b.Interior)
		}
		return a.Interior[0].ID() < b.Interior[0].ID()
	})
	buckets := make([]*Region, max)
	for i := range buckets {
		buckets[i] = &Region{}
	}
	for _, c := range ordered {
		smallest := 0
		for i := 1; i < max; i++ {
			if len(buckets[i].Interior) < len(buckets[smallest].Interior) {
				smallest = i
			}
		}
		buckets[smallest].Interior = append(buckets[smallest].Interior, c.Interior...)
	}
	var out []*Region
	for _, b := range buckets {
		if len(b.Interior) == 0 {
			continue
		}
		sortByID(b.Interior)
		out = append(out, b)
	}
	// Order regions by their first gate ID for a stable region numbering.
	sort.Slice(out, func(i, j int) bool {
		return out[i].Interior[0].ID() < out[j].Interior[0].ID()
	})
	return out
}

func sortByID(gs []*network.Gate) {
	sort.Slice(gs, func(i, j int) bool { return gs[i].ID() < gs[j].ID() })
}
