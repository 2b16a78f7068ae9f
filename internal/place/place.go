// Package place implements the row-based standard-cell placer that stands
// in for the commercial timing-driven placer of the paper's flow (§6). The
// rewiring engine only consumes the *result* of placement — fixed cell
// locations — so a deterministic wirelength-driven placer preserves the
// experimental setup: nets acquire geometric spread, critical paths depend
// on locations, and the optimizers must leave those locations intact.
//
// The placer seeds cells into rows in topological-level order (natural
// left-to-right dataflow) and then improves half-perimeter wirelength with
// a fixed-seed simulated-annealing pass over pairwise slot swaps.
package place

import (
	"math"
	"math/rand"

	"repro/internal/library"
	"repro/internal/network"
	"repro/internal/wire"
)

// inputPadWidth is the placement width given to primary inputs in µm.
const inputPadWidth = 8.0

// Options controls placement.
type Options struct {
	// Seed drives the annealer; placement is deterministic per seed.
	Seed int64
	// MovesPerCell scales annealing effort (default 60).
	MovesPerCell int
	// Aspect is the target width/height ratio of the die (default 1).
	Aspect float64
}

// Result summarizes a placement run.
type Result struct {
	Rows, Cols  int
	DieWidth    float64 // µm
	DieHeight   float64 // µm
	InitialHPWL float64 // µm, after constructive placement
	FinalHPWL   float64 // µm, after annealing
	MovesTried  int
	MovesTaken  int
}

// cellWidth returns the placement width of a gate in µm.
func cellWidth(g *network.Gate, lib *library.Library) float64 {
	if g.IsInput() {
		return inputPadWidth
	}
	return lib.MustCell(g.Type, g.NumFanins(), g.SizeIdx).Width()
}

// Place assigns X, Y coordinates to every gate of n and returns placement
// statistics. Coordinates are cell centers; rows have library.RowHeight
// pitch. The same network, library, and options always produce the same
// placement.
func Place(n *network.Network, lib *library.Library, opt Options) Result {
	if opt.MovesPerCell <= 0 {
		opt.MovesPerCell = 60
	}
	if opt.Aspect <= 0 {
		opt.Aspect = 1
	}
	order := n.TopoOrder() // level order: inputs first, then by depth
	numCells := len(order)
	if numCells == 0 {
		return Result{}
	}

	totalWidth := 0.0
	for _, g := range order {
		totalWidth += cellWidth(g, lib)
	}
	// Choose rows so that rows*RowHeight ≈ die height and row width ≈
	// aspect*height, with 10% whitespace.
	rowWidthTarget := math.Sqrt(totalWidth * 1.1 * library.RowHeight * opt.Aspect)
	rows := int(math.Ceil(totalWidth * 1.1 / rowWidthTarget))
	if rows < 1 {
		rows = 1
	}

	// Constructive placement: snake-fill rows in topological order.
	type slot struct {
		x, y float64
	}
	slots := make([]slot, numCells)
	assign := make([]*network.Gate, numCells) // slot -> gate
	slotOf := make(map[*network.Gate]int, numCells)
	row, x := 0, 0.0
	dieWidth := 0.0
	for i, g := range order {
		w := cellWidth(g, lib)
		if x+w > rowWidthTarget && x > 0 {
			row++
			x = 0
		}
		slots[i] = slot{x + w/2, (float64(row) + 0.5) * library.RowHeight}
		assign[i] = g
		slotOf[g] = i
		x += w
		if x > dieWidth {
			dieWidth = x
		}
	}
	rows = row + 1
	apply := func() {
		for i, g := range assign {
			g.X, g.Y = slots[i].x, slots[i].y
			g.Placed = true
		}
	}
	apply()

	res := Result{
		Rows:      rows,
		DieWidth:  dieWidth,
		DieHeight: float64(rows) * library.RowHeight,
	}
	res.InitialHPWL = TotalHPWL(n)

	// Annealing over slot swaps. Cost deltas are evaluated on the nets
	// incident to the two swapped cells only.
	rng := rand.New(rand.NewSource(opt.Seed))
	pts := make([]wire.Point, 0, 16)
	netHPWL := func(driver *network.Gate) float64 {
		pts = pts[:0]
		pts = append(pts, wire.Point{X: driver.X, Y: driver.Y})
		for _, s := range driver.Fanouts() {
			pts = append(pts, wire.Point{X: s.X, Y: s.Y})
		}
		return wire.HPWL(pts)
	}
	incidentCost := func(g *network.Gate) float64 {
		c := netHPWL(g)
		for _, f := range g.Fanins() {
			c += netHPWL(f)
		}
		return c
	}
	moves := opt.MovesPerCell * numCells
	temp := res.InitialHPWL / float64(numCells) // ~ average net scale
	if temp <= 0 {
		temp = 1
	}
	cooling := math.Pow(0.01, 1/float64(moves)) // end at 1% of start temp
	for m := 0; m < moves; m++ {
		i := rng.Intn(numCells)
		j := rng.Intn(numCells)
		if i == j {
			continue
		}
		gi, gj := assign[i], assign[j]
		before := incidentCost(gi) + incidentCost(gj)
		gi.X, gi.Y = slots[j].x, slots[j].y
		gj.X, gj.Y = slots[i].x, slots[i].y
		after := incidentCost(gi) + incidentCost(gj)
		delta := after - before
		res.MovesTried++
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			assign[i], assign[j] = gj, gi
			slotOf[gi], slotOf[gj] = j, i
			res.MovesTaken++
		} else {
			gi.X, gi.Y = slots[i].x, slots[i].y
			gj.X, gj.Y = slots[j].x, slots[j].y
		}
		temp *= cooling
	}
	// Locations were written directly, bypassing the event layer.
	n.Invalidate()
	res.FinalHPWL = TotalHPWL(n)
	return res
}

// TotalHPWL sums the half-perimeter wirelength of every net (driver plus
// sinks) over the placed network, in µm.
func TotalHPWL(n *network.Network) float64 {
	total := 0.0
	var pts []wire.Point
	n.Gates(func(g *network.Gate) {
		if g.NumFanouts() == 0 {
			return
		}
		pts = pts[:0]
		pts = append(pts, wire.Point{X: g.X, Y: g.Y})
		for _, s := range g.Fanouts() {
			pts = append(pts, wire.Point{X: s.X, Y: s.Y})
		}
		total += wire.HPWL(pts)
	})
	return total
}

// Snapshot records every gate's coordinates, keyed by gate name. The
// optimizers use it to prove the placement-intact invariant: gsg must
// leave the snapshot bit-identical for surviving gates.
func Snapshot(n *network.Network) map[string][2]float64 {
	m := make(map[string][2]float64, n.NumGates())
	n.Gates(func(g *network.Gate) {
		if g.Placed {
			m[g.Name()] = [2]float64{g.X, g.Y}
		}
	})
	return m
}

// SameLocations reports whether every gate name present in both snapshots
// has identical coordinates, and returns the first differing name.
func SameLocations(a, b map[string][2]float64) (string, bool) {
	for name, pa := range a {
		if pb, ok := b[name]; ok && pa != pb {
			return name, false
		}
	}
	return "", true
}
