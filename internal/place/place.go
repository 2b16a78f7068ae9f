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
//
// A trial swap is priced from cached per-net bounding boxes instead of by
// re-scanning the nets, VPR's incremental bounding-box update (Betz &
// Rose, FPL 1997). Each net, indexed by its driver's ID, keeps its box
// and, for each of the four edges, how many pins lie on the edge (a sink
// counts once per in-pin) and the nearest coordinate of any pin off it
// (±Inf when there is none). The cost before a swap is read from the
// boxes. After it, a net that only one of the two cells sits on sees that
// cell's m pins leave the old point for the new one: an edge those m pins
// held alone falls back to its second value, and the new point then
// extends the box. A net both cells sit on is re-scanned. An accepted swap
// re-scans the nets of both cells to refresh their boxes.
//
// This is exact, not an estimate. Min and max never round, so every edge
// equals the one a fresh scan finds, bit for bit; each net's half-perimeter
// is the same (maxX−minX)+(maxY−minY); and the costs are summed in the
// order a full re-scan sums them. Every accept/reject decision, random
// draw and coordinate is therefore the one a re-scanning annealer makes,
// which the package tests check against such an annealer.
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
	// Rows is the number of cell rows. Cols is the largest number of
	// cells in one row of the constructive fill; annealing swaps cells
	// between slots and never changes it.
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
	opt = opt.withDefaults()
	slots, cells, res := fill(n, lib, opt.Aspect)
	numCells := len(cells)
	if numCells == 0 {
		return res
	}

	// Annealing over slot swaps. Cell c starts in slot c.
	a := newAnnealer(n, cells)
	assign := make([]int32, numCells) // slot -> cell
	for i := range assign {
		assign[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
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
		ci, cj := assign[i], assign[j]
		bi, ai := a.price(ci, cj, slots[i], slots[j])
		bj, aj := a.price(cj, ci, slots[j], slots[i])
		delta := (ai + aj) - (bi + bj)
		res.MovesTried++
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			assign[i], assign[j] = cj, ci
			a.commit(ci, cj, slots[j], slots[i])
			res.MovesTaken++
		}
		temp *= cooling
	}
	for i, c := range assign {
		cells[c].X, cells[c].Y = slots[i].X, slots[i].Y
	}
	// Locations were written directly, bypassing the event layer.
	n.Invalidate()
	res.FinalHPWL = TotalHPWL(n)
	return res
}

func (o Options) withDefaults() Options {
	if o.MovesPerCell <= 0 {
		o.MovesPerCell = 60
	}
	if o.Aspect <= 0 {
		o.Aspect = 1
	}
	return o
}

// fill is the constructive placement: it fills rows left to right with
// the cells in topological (level) order, inputs first, and writes their
// coordinates. It returns the slot centers, the cell in each slot, and the
// Result up to InitialHPWL.
func fill(n *network.Network, lib *library.Library, aspect float64) ([]wire.Point, []*network.Gate, Result) {
	order := n.TopoOrder()
	if len(order) == 0 {
		return nil, nil, Result{}
	}
	totalWidth := 0.0
	for _, g := range order {
		totalWidth += cellWidth(g, lib)
	}
	// Rows of width ≈ aspect*height, with 10% whitespace.
	rowWidthTarget := math.Sqrt(totalWidth * 1.1 * library.RowHeight * aspect)

	var res Result
	slots := make([]wire.Point, len(order))
	row, x, inRow := 0, 0.0, 0
	for i, g := range order {
		w := cellWidth(g, lib)
		if x+w > rowWidthTarget && x > 0 {
			row++
			x, inRow = 0, 0
		}
		slots[i] = wire.Point{X: x + w/2, Y: (float64(row) + 0.5) * library.RowHeight}
		g.X, g.Y = slots[i].X, slots[i].Y
		g.Placed = true
		x += w
		if x > res.DieWidth {
			res.DieWidth = x
		}
		if inRow++; inRow > res.Cols {
			res.Cols = inRow
		}
	}
	res.Rows = row + 1
	res.DieHeight = float64(res.Rows) * library.RowHeight
	res.InitialHPWL = TotalHPWL(n)
	return slots, order, res
}

// annealer holds the state the annealing loop prices swaps from, in
// dense arrays indexed by gate ID, so pricing a swap reads no gate.
type annealer struct {
	pos  []wire.Point // every gate's current location
	box  []netBox     // every net's box, by driver
	span [][2]int32   // pins[span[d][0]:span[d][1]] is net d
	pins []int32      // per net: the driver, then each sink once per in-pin
	ids  []int32      // cell -> gate ID
	// nets[start[c]:start[c+1]] are the nets cell c sits on: its own,
	// then each fanin's in pin order, a repeated fanin repeated.
	start []int32
	nets  []incident
	pts   []wire.Point // swappedHPWL's scratch
}

// incident is one net a cell sits on: the net's driver and how many of
// the cell's pins are on it.
type incident struct{ id, pins int32 }

// netBox is one net's bounding box over its pins. For each edge it also
// keeps the number of pins on the edge and the nearest coordinate of any
// pin off it, or ±Inf when every pin is on it; that second value is where
// the edge falls back to when the pins on it all leave.
type netBox struct {
	lo, hi   wire.Point // min and max pin coordinates
	lo2, hi2 wire.Point // nearest pin coordinate off each edge
	nLo, nHi [2]int32   // pins on each edge: X, then Y
}

func newAnnealer(n *network.Network, cells []*network.Gate) *annealer {
	bound := n.IDBound()
	a := &annealer{
		pos:   make([]wire.Point, bound),
		box:   make([]netBox, bound),
		span:  make([][2]int32, bound),
		ids:   make([]int32, len(cells)),
		start: make([]int32, len(cells)+1),
	}
	numPins, numNets := 0, 0
	n.Gates(func(g *network.Gate) { numPins += 1 + g.NumFanouts() })
	for _, g := range cells {
		numNets += 1 + g.NumFanins()
	}
	a.pins = make([]int32, 0, numPins)
	a.nets = make([]incident, 0, numNets)
	n.Gates(func(g *network.Gate) {
		id := g.ID()
		a.pos[id] = wire.Point{X: g.X, Y: g.Y}
		a.span[id][0] = int32(len(a.pins))
		a.pins = append(a.pins, int32(id))
		for _, s := range g.Fanouts() {
			a.pins = append(a.pins, int32(s.ID()))
		}
		a.span[id][1] = int32(len(a.pins))
	})
	for c, g := range cells {
		a.ids[c] = int32(g.ID())
		a.start[c] = int32(len(a.nets))
		a.nets = append(a.nets, incident{int32(g.ID()), pinsOn(g, g)})
		for _, f := range g.Fanins() {
			a.nets = append(a.nets, incident{int32(f.ID()), pinsOn(g, f)})
		}
	}
	a.start[len(cells)] = int32(len(a.nets))
	n.Gates(func(g *network.Gate) { a.scan(int32(g.ID())) })
	return a
}

// pinsOn returns how many pins g has on the net driven by d.
func pinsOn(g, d *network.Gate) int32 {
	var k int32
	if g == d {
		k++
	}
	for _, f := range g.Fanins() {
		if f == d {
			k++
		}
	}
	return k
}

func (a *annealer) incident(c int32) []incident {
	return a.nets[a.start[c]:a.start[c+1]]
}

func (a *annealer) netPins(d int32) []int32 {
	return a.pins[a.span[d][0]:a.span[d][1]]
}

// price returns the summed half-perimeter of the nets cell c sits on, a
// net counted once per listing, before and after c moves from slot point
// from to to and cell o moves from to to from.
func (a *annealer) price(c, o int32, from, to wire.Point) (before, after float64) {
	others := a.incident(o)
	for _, e := range a.incident(c) {
		b := &a.box[e.id]
		before += b.hpwl()
		if sitsOn(others, e.id) {
			after += a.swappedHPWL(e.id, a.ids[c], to, a.ids[o], from)
		} else {
			after += b.moved(e.pins, from, to)
		}
	}
	return before, after
}

func sitsOn(nets []incident, id int32) bool {
	for _, e := range nets {
		if e.id == id {
			return true
		}
	}
	return false
}

// swappedHPWL re-scans net d with gate g at pg and gate h at ph, every
// other pin where it is.
func (a *annealer) swappedHPWL(d, g int32, pg wire.Point, h int32, ph wire.Point) float64 {
	a.pts = a.pts[:0]
	for _, p := range a.netPins(d) {
		switch p {
		case g:
			a.pts = append(a.pts, pg)
		case h:
			a.pts = append(a.pts, ph)
		default:
			a.pts = append(a.pts, a.pos[p])
		}
	}
	return wire.HPWL(a.pts)
}

// commit records an accepted swap, cell ci now at pi and cj at pj, and
// re-scans the nets of both cells.
func (a *annealer) commit(ci, cj int32, pi, pj wire.Point) {
	a.pos[a.ids[ci]], a.pos[a.ids[cj]] = pi, pj
	for _, c := range [2]int32{ci, cj} {
		for _, e := range a.incident(c) {
			a.scan(e.id)
		}
	}
}

// scan recomputes the box of net d from its pins.
func (a *annealer) scan(d int32) {
	inf := math.Inf(1)
	b := &a.box[d]
	*b = netBox{
		lo: wire.Point{X: inf, Y: inf}, lo2: wire.Point{X: inf, Y: inf},
		hi: wire.Point{X: -inf, Y: -inf}, hi2: wire.Point{X: -inf, Y: -inf},
	}
	for _, p := range a.netPins(d) {
		b.add(a.pos[p])
	}
}

func (b *netBox) hpwl() float64 { return (b.hi.X - b.lo.X) + (b.hi.Y - b.lo.Y) }

func (b *netBox) add(p wire.Point) {
	addLow(&b.lo.X, &b.lo2.X, &b.nLo[0], p.X)
	addLow(&b.lo.Y, &b.lo2.Y, &b.nLo[1], p.Y)
	addHigh(&b.hi.X, &b.hi2.X, &b.nHi[0], p.X)
	addHigh(&b.hi.Y, &b.hi2.Y, &b.nHi[1], p.Y)
}

// addLow adds coordinate v to a low edge at *at with *n pins on it and
// the nearest off-edge coordinate *next.
func addLow(at, next *float64, n *int32, v float64) {
	switch {
	case v < *at:
		*next, *at, *n = *at, v, 1
	case v == *at:
		*n++
	case v < *next:
		*next = v
	}
}

// addHigh is addLow for a high edge.
func addHigh(at, next *float64, n *int32, v float64) {
	switch {
	case v > *at:
		*next, *at, *n = *at, v, 1
	case v == *at:
		*n++
	case v > *next:
		*next = v
	}
}

// moved returns the net's half-perimeter after m of its pins, all at
// from, move to to.
func (b *netBox) moved(m int32, from, to wire.Point) float64 {
	loX := lowAfter(b.lo.X, b.lo2.X, b.nLo[0], m, from.X, to.X)
	loY := lowAfter(b.lo.Y, b.lo2.Y, b.nLo[1], m, from.Y, to.Y)
	hiX := highAfter(b.hi.X, b.hi2.X, b.nHi[0], m, from.X, to.X)
	hiY := highAfter(b.hi.Y, b.hi2.Y, b.nHi[1], m, from.Y, to.Y)
	return (hiX - loX) + (hiY - loY)
}

// lowAfter is a low edge at at, with n pins on it and next the nearest
// coordinate off it, after m pins move from v to w. The edge falls back to
// next when those m were all its pins; w then extends it.
func lowAfter(at, next float64, n, m int32, v, w float64) float64 {
	if v == at && n == m {
		at = next
	}
	return min(at, w)
}

// highAfter is lowAfter for a high edge.
func highAfter(at, next float64, n, m int32, v, w float64) float64 {
	if v == at && n == m {
		at = next
	}
	return max(at, w)
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
