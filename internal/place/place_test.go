package place

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/wire"
)

func lib() *library.Library { return library.Default035() }

func smallCircuit() *network.Network {
	n := network.New("p")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	g1 := n.AddGate("g1", logic.Nand, a, b)
	g2 := n.AddGate("g2", logic.Nor, g1, c)
	f := n.AddGate("f", logic.Xor, g1, g2)
	n.MarkOutput(f)
	return n
}

func TestPlaceAssignsAllCoordinates(t *testing.T) {
	n := smallCircuit()
	res := Place(n, lib(), Options{Seed: 1})
	n.Gates(func(g *network.Gate) {
		if !g.Placed {
			t.Errorf("%s not placed", g)
		}
		if g.X < 0 || g.Y < 0 || g.Y > res.DieHeight {
			t.Errorf("%s at (%v,%v) outside die", g, g.X, g.Y)
		}
	})
	if res.Rows < 1 || res.DieWidth <= 0 {
		t.Fatalf("bad die: %+v", res)
	}
}

func TestPlaceDeterministic(t *testing.T) {
	n1 := smallCircuit()
	n2 := smallCircuit()
	Place(n1, lib(), Options{Seed: 42})
	Place(n2, lib(), Options{Seed: 42})
	s1, s2 := Snapshot(n1), Snapshot(n2)
	if name, same := SameLocations(s1, s2); !same {
		t.Fatalf("placement not deterministic at %s", name)
	}
}

func TestPlaceSeedMatters(t *testing.T) {
	n, err := gen.Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := n.Clone()
	Place(n, lib(), Options{Seed: 1})
	Place(m, lib(), Options{Seed: 2})
	if _, same := SameLocations(Snapshot(n), Snapshot(m)); same {
		t.Fatal("different seeds gave identical placements (annealer inert?)")
	}
}

func TestAnnealingImprovesWirelength(t *testing.T) {
	n, err := gen.Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	res := Place(n, lib(), Options{Seed: 7})
	if res.FinalHPWL <= 0 {
		t.Fatal("no wirelength")
	}
	if res.FinalHPWL > res.InitialHPWL {
		t.Fatalf("annealing worsened HPWL: %.0f -> %.0f", res.InitialHPWL, res.FinalHPWL)
	}
	if res.MovesTaken == 0 {
		t.Fatal("annealer accepted no moves")
	}
	if got := TotalHPWL(n); got != res.FinalHPWL {
		t.Fatalf("TotalHPWL %v != reported %v", got, res.FinalHPWL)
	}
}

func TestSnapshotAndCompare(t *testing.T) {
	n := smallCircuit()
	Place(n, lib(), Options{Seed: 3})
	s1 := Snapshot(n)
	if len(s1) != n.NumGates() {
		t.Fatalf("snapshot has %d entries, want %d", len(s1), n.NumGates())
	}
	g := n.FindGate("g1")
	g.X += 1
	s2 := Snapshot(n)
	name, same := SameLocations(s1, s2)
	if same || name != "g1" {
		t.Fatalf("SameLocations missed the moved cell: %q %v", name, same)
	}
	// Snapshots tolerate gates missing from one side (e.g. swept gates).
	g.X -= 1
	s3 := Snapshot(n)
	delete(s3, "g2")
	if _, same := SameLocations(Snapshot(n), s3); !same {
		t.Fatal("missing entries should not count as moves")
	}
}

func TestPlaceEmptyNetwork(t *testing.T) {
	n := network.New("empty")
	res := Place(n, lib(), Options{Seed: 1})
	if res.Rows != 0 || res.FinalHPWL != 0 {
		t.Fatalf("empty placement: %+v", res)
	}
}

func TestPlaceScalesToTableCircuits(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	n, err := gen.Generate("alu4")
	if err != nil {
		t.Fatal(err)
	}
	res := Place(n, lib(), Options{Seed: 5, MovesPerCell: 20})
	if res.FinalHPWL > res.InitialHPWL {
		t.Fatal("annealing worsened a real benchmark")
	}
	// Die should be roughly square (aspect default 1): within 4x.
	ratio := res.DieWidth / res.DieHeight
	if ratio < 0.25 || ratio > 4 {
		t.Fatalf("die aspect %v unreasonable (%+v)", ratio, res)
	}
}

func TestPlaceCols(t *testing.T) {
	for _, name := range []string{"c432", "i8"} {
		n, err := gen.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		res := Place(n, lib(), Options{Seed: 1, MovesPerCell: 5})
		// Annealing moves cells between slots, never between a row's
		// slot count, so the widest row is still visible at the end.
		perRow := map[float64]int{}
		widest := 0
		n.Gates(func(g *network.Gate) {
			perRow[g.Y]++
			widest = max(widest, perRow[g.Y])
		})
		if len(perRow) != res.Rows || res.Cols != widest {
			t.Errorf("%s: Rows %d Cols %d, placement has %d rows, widest %d cells", name, res.Rows, res.Cols, len(perRow), widest)
		}
	}
	if res := Place(smallCircuit(), lib(), Options{Seed: 1}); res.Cols < 1 || res.Rows*res.Cols < 6 {
		t.Errorf("6 cells in %d rows of at most %d", res.Rows, res.Cols)
	}
}

// referencePlace is the annealer Place replaced, kept as its oracle: it
// prices every trial swap by re-scanning each net incident to the two
// cells, before and after moving them. Place must agree with it bit for
// bit on every coordinate and on the Result.
func referencePlace(n *network.Network, lib *library.Library, opt Options) Result {
	opt = opt.withDefaults()
	slots, assign, res := fill(n, lib, opt.Aspect)
	numCells := len(assign)
	if numCells == 0 {
		return res
	}
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
	temp := res.InitialHPWL / float64(numCells)
	if temp <= 0 {
		temp = 1
	}
	cooling := math.Pow(0.01, 1/float64(moves))
	for m := 0; m < moves; m++ {
		i := rng.Intn(numCells)
		j := rng.Intn(numCells)
		if i == j {
			continue
		}
		gi, gj := assign[i], assign[j]
		before := incidentCost(gi) + incidentCost(gj)
		gi.X, gi.Y = slots[j].X, slots[j].Y
		gj.X, gj.Y = slots[i].X, slots[i].Y
		after := incidentCost(gi) + incidentCost(gj)
		delta := after - before
		res.MovesTried++
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			assign[i], assign[j] = gj, gi
			res.MovesTaken++
		} else {
			gi.X, gi.Y = slots[i].X, slots[i].Y
			gj.X, gj.Y = slots[j].X, slots[j].Y
		}
		temp *= cooling
	}
	n.Invalidate()
	res.FinalHPWL = TotalHPWL(n)
	return res
}

// requireSamePlacement places a and b, two builds of one network, with
// Place and referencePlace and fails on any difference.
func requireSamePlacement(t *testing.T, a, b *network.Network, opt Options) {
	t.Helper()
	got, want := Place(a, lib(), opt), referencePlace(b, lib(), opt)
	if got != want {
		t.Fatalf("%+v: Result\n got %+v\nwant %+v", opt, got, want)
	}
	ga, gb := a.GateSlice(), b.GateSlice()
	for k, g := range ga {
		h := gb[k]
		if math.Float64bits(g.X) != math.Float64bits(h.X) || math.Float64bits(g.Y) != math.Float64bits(h.Y) {
			t.Fatalf("%+v: %s at (%v, %v), reference at (%v, %v)", opt, g.Name(), g.X, g.Y, h.X, h.Y)
		}
	}
}

func TestPlaceMatchesReference(t *testing.T) {
	for _, name := range []string{"c432", "alu2", "i8"} {
		for seed := int64(1); seed <= 2; seed++ {
			a, _ := gen.Generate(name)
			b, _ := gen.Generate(name)
			requireSamePlacement(t, a, b, Options{Seed: seed, MovesPerCell: 10})
		}
	}
}

// fuzzPlaceNet builds a random DAG for FuzzPlace. Every gate draws its
// fanins from earlier gates, so some gates drive nothing. hub is the share
// (of 255) of fanins taken from one input, a high-fanout net; a fanin
// repeats the previous one one time in four, so a sink may sit on a net
// through several pins (g = f·f). With uniform set, every gate is a
// minimum-size 2-input NAND: all cells share one width, so slot centers
// line up across rows and box edges tie.
func fuzzPlaceNet(seed int64, size, hub uint8, uniform bool) *network.Network {
	r := rand.New(rand.NewSource(seed))
	n := network.New("fuzz")
	var all []*network.Gate
	for i, npi := 0, 1+r.Intn(4); i < npi; i++ {
		all = append(all, n.AddInput(fmt.Sprintf("i%d", i)))
	}
	types := []logic.GateType{logic.Inv, logic.Buf, logic.Nand, logic.Nor, logic.Xor, logic.Xnor}
	for i, ng := 0, 1+int(size%96); i < ng; i++ {
		typ, k, sizeIdx := logic.Nand, 2, 0
		if !uniform {
			typ = types[r.Intn(len(types))]
			k = 1
			if !typ.IsUnary() {
				k = 2 + r.Intn(library.MaxFanin-1)
			}
			sizeIdx = r.Intn(library.NumSizes)
		}
		fanins := make([]*network.Gate, k)
		for j := range fanins {
			switch {
			case r.Intn(255) < int(hub):
				fanins[j] = all[0]
			case j > 0 && r.Intn(4) == 0:
				fanins[j] = fanins[j-1]
			default:
				fanins[j] = all[r.Intn(len(all))]
			}
		}
		g := n.AddGate(fmt.Sprintf("g%d", i), typ, fanins...)
		g.SizeIdx = sizeIdx
		all = append(all, g)
	}
	return n
}

// FuzzPlace checks the incremental annealer against referencePlace on
// random DAGs: high-fanout nets, repeated fanins, sinkless gates, swaps
// of two cells on one net, and ties on box edges.
func FuzzPlace(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0), uint8(8), uint8(0), false)
	f.Add(int64(2), uint8(90), uint8(120), uint8(20), uint8(3), false)
	f.Add(int64(3), uint8(60), uint8(30), uint8(30), uint8(0), true)
	f.Add(int64(4), uint8(5), uint8(255), uint8(50), uint8(1), true)
	f.Add(int64(5), uint8(0), uint8(0), uint8(1), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, size, hub, moves, aspect uint8, uniform bool) {
		opt := Options{Seed: seed, MovesPerCell: 1 + int(moves%64), Aspect: float64(aspect%8) / 2}
		requireSamePlacement(t, fuzzPlaceNet(seed, size, hub, uniform), fuzzPlaceNet(seed, size, hub, uniform), opt)
	})
}
