package sta_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/library"
	"repro/internal/network"
	"repro/internal/place"
	"repro/internal/rewire"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/supergate"
)

const tol = 1e-9

// requireMatch asserts that the incremental view agrees with a fresh
// ground-truth Analyze on arrivals, required times, and critical delay.
func requireMatch(t *testing.T, step string, n *network.Network, lib *library.Library, clock float64, got *sta.Timing) {
	t.Helper()
	want := sta.Analyze(n, lib, clock)
	if d := math.Abs(want.CriticalDelay - got.CriticalDelay); d > tol {
		t.Fatalf("%s: critical delay diverged by %g (incremental %v, full %v)",
			step, d, got.CriticalDelay, want.CriticalDelay)
	}
	n.Gates(func(g *network.Gate) {
		ga, wa := got.Arrival(g), want.Arrival(g)
		if math.Abs(ga.Rise-wa.Rise) > tol || math.Abs(ga.Fall-wa.Fall) > tol {
			t.Fatalf("%s: arrival of %v diverged: incremental %+v, full %+v", step, g, ga, wa)
		}
		gr, wr := got.Required(g), want.Required(g)
		if !edgeClose(gr, wr) {
			t.Fatalf("%s: required of %v diverged: incremental %+v, full %+v", step, g, gr, wr)
		}
		if math.Abs(got.Load(g)-want.Load(g)) > tol {
			t.Fatalf("%s: load of %v diverged: incremental %v, full %v", step, g, got.Load(g), want.Load(g))
		}
	})
}

// edgeClose compares required-time edges, treating the +inf sentinel (a
// gate that reaches no primary output) as equal to itself.
func edgeClose(a, b sta.Edge) bool {
	close := func(x, y float64) bool {
		if x == y { // covers the +inf == +inf case exactly
			return true
		}
		return math.Abs(x-y) <= tol
	}
	return close(a.Rise, b.Rise) && close(a.Fall, b.Fall)
}

// mutator applies one randomized, functionality-preserving (or at least
// structurally legal) mutation through the network's event layer.
type mutator struct {
	rng *rand.Rand
	n   *network.Network
}

// randomSwap applies one random legal supergate swap and returns its undo,
// or nil if the extraction offers none.
func (m *mutator) randomSwap() rewire.Undo {
	ext := supergate.Extract(m.n)
	var swaps []rewire.Swap
	for _, sg := range ext.NonTrivial() {
		if len(sg.Leaves) <= 12 {
			swaps = append(swaps, rewire.Enumerate(sg)...)
		}
	}
	if len(swaps) == 0 {
		return nil
	}
	return rewire.Apply(m.n, swaps[m.rng.Intn(len(swaps))])
}

// randomResize flips a random logic gate to a random library size.
func (m *mutator) randomResize() bool {
	gates := m.n.GateSlice()
	for tries := 0; tries < 32; tries++ {
		g := gates[m.rng.Intn(len(gates))]
		if g.IsInput() {
			continue
		}
		m.n.SetSize(g, m.rng.Intn(library.NumSizes))
		return true
	}
	return false
}

// randomDeMorgan dualizes a random and-or supergate in place.
func (m *mutator) randomDeMorgan() bool {
	ext := supergate.Extract(m.n)
	var cands []*supergate.Supergate
	for _, sg := range ext.NonTrivial() {
		if sg.Kind == supergate.AndOr && len(sg.Leaves) <= 8 {
			cands = append(cands, sg)
		}
	}
	if len(cands) == 0 {
		return false
	}
	if _, err := rewire.DeMorgan(m.n, cands[m.rng.Intn(len(cands))]); err != nil {
		panic(err)
	}
	return true
}

// TestIncrementalMatchesFullSTA is the equivalence property test: random
// sequences of swaps, resizes, DeMorgan transforms, undos, and sweeps are
// applied to generated benchmarks, and after every batch the incremental
// timer must match a fresh full Analyze to within 1e-9.
func TestIncrementalMatchesFullSTA(t *testing.T) {
	for _, name := range []string{"c432", "alu2"} {
		t.Run(name, func(t *testing.T) {
			lib := library.Default035()
			n, err := gen.Generate(name)
			if err != nil {
				t.Fatal(err)
			}
			place.Place(n, lib, place.Options{Seed: 7, MovesPerCell: 5})
			sizing.SeedForLoad(n, lib, 0)

			inc := sta.NewIncremental(n, lib, 0)
			defer inc.Close()
			// Never fall back: this test must exercise the dirty-region
			// propagation itself, not the full-analysis escape hatch.
			inc.FullFraction = 2
			clock := inc.Timing().Clock
			requireMatch(t, "initial", n, lib, clock, inc.Timing())

			m := &mutator{rng: rand.New(rand.NewSource(99)), n: n}
			steps := 60
			if testing.Short() {
				steps = 15
			}
			for i := 0; i < steps; i++ {
				// 1-3 mutations per batch so Update coalesces dirt.
				batch := 1 + m.rng.Intn(3)
				desc := ""
				for k := 0; k < batch; k++ {
					switch m.rng.Intn(4) {
					case 0:
						if undo := m.randomSwap(); undo != nil {
							desc += "swap,"
							if m.rng.Intn(2) == 0 {
								undo()
								desc += "undo,"
							}
						}
					case 1:
						if m.randomResize() {
							desc += "resize,"
						}
					case 2:
						if m.randomDeMorgan() {
							desc += "demorgan,"
						}
					case 3:
						if removed := n.Sweep(); removed > 0 {
							desc += fmt.Sprintf("sweep(%d),", removed)
						}
					}
				}
				if err := n.Validate(); err != nil {
					t.Fatalf("step %d (%s): network invalid: %v", i, desc, err)
				}
				requireMatch(t, fmt.Sprintf("step %d (%s)", i, desc), n, lib, clock, inc.Update())
			}
			st := inc.Stats()
			if st.IncrementalUpdates == 0 {
				t.Fatalf("no incremental updates ran; the test exercised nothing (stats %+v)", st)
			}
			if st.FullAnalyses != 1 {
				t.Fatalf("expected exactly the construction-time full analysis, got %d", st.FullAnalyses)
			}
		})
	}
}

// TestIncrementalFullFallback drives the timer with FullFraction = 0 so
// every Update takes the seeded full-Analyze escape hatch, which must be
// just as correct.
func TestIncrementalFullFallback(t *testing.T) {
	lib := library.Default035()
	n, err := gen.Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	place.Place(n, lib, place.Options{Seed: 3, MovesPerCell: 5})
	inc := sta.NewIncremental(n, lib, 0)
	defer inc.Close()
	inc.FullFraction = 0
	clock := inc.Timing().Clock

	m := &mutator{rng: rand.New(rand.NewSource(5)), n: n}
	for i := 0; i < 8; i++ {
		m.randomResize()
		if undo := m.randomSwap(); undo != nil && m.rng.Intn(2) == 0 {
			undo()
		}
		requireMatch(t, fmt.Sprintf("step %d", i), n, lib, clock, inc.Update())
	}
	st := inc.Stats()
	if st.IncrementalUpdates != 0 {
		t.Fatalf("FullFraction=0 must force fallback, yet %d incremental updates ran", st.IncrementalUpdates)
	}
	if st.FullAnalyses < 2 {
		t.Fatalf("expected fallback full analyses, got %d", st.FullAnalyses)
	}
}

// TestIncrementalExplicitClock checks that a positive clock is honored and
// frozen across updates, so required times stay comparable.
func TestIncrementalExplicitClock(t *testing.T) {
	lib := library.Default035()
	n, err := gen.Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	place.Place(n, lib, place.Options{Seed: 3, MovesPerCell: 5})
	const clock = 25.0
	inc := sta.NewIncremental(n, lib, clock)
	defer inc.Close()
	inc.FullFraction = 2
	if inc.Timing().Clock != clock {
		t.Fatalf("clock not honored: %v", inc.Timing().Clock)
	}
	m := &mutator{rng: rand.New(rand.NewSource(11)), n: n}
	for i := 0; i < 5; i++ {
		m.randomResize()
		tm := inc.Update()
		if tm.Clock != clock {
			t.Fatalf("clock drifted to %v after update %d", tm.Clock, i)
		}
		requireMatch(t, fmt.Sprintf("step %d", i), n, lib, clock, tm)
	}
}

// TestIncrementalRemovedGates checks the bookkeeping when gates die: after
// a swap's undo removes its inverters (and after Sweep), the timer must
// hold no entries for dead gates and still match the oracle.
func TestIncrementalRemovedGates(t *testing.T) {
	lib := library.Default035()
	n, err := gen.Generate("alu2")
	if err != nil {
		t.Fatal(err)
	}
	place.Place(n, lib, place.Options{Seed: 2, MovesPerCell: 5})
	inc := sta.NewIncremental(n, lib, 0)
	defer inc.Close()
	inc.FullFraction = 2
	clock := inc.Timing().Clock

	m := &mutator{rng: rand.New(rand.NewSource(21)), n: n}
	// Inverting swaps create inverters; undoing them removes gates.
	applied := 0
	for i := 0; i < 20 && applied < 6; i++ {
		if undo := m.randomSwap(); undo != nil {
			undo()
			applied++
			requireMatch(t, fmt.Sprintf("apply+undo %d", applied), n, lib, clock, inc.Update())
		}
	}
	n.Sweep()
	requireMatch(t, "after sweep", n, lib, clock, inc.Update())
}

// incWorkGolden is the work each Update of TestIncrementalWorkGolden's
// script performs: arrival and required recomputes and an FNV-1a hash of
// the LastTouched ID sequence. A change to the propagation queue's pop
// order moves these even when the timing stays exact.
var incWorkGolden = []struct {
	arr, req int
	touched  uint64
}{
	{33, 26, 0xfe15e17f77fdfb96},    // resize, 55 touched
	{9, 9, 0x5767b413ff4f8b60},      // swap, 15 touched
	{73, 24, 0x2bfaf60395f8a05d},    // resize, 93 touched
	{14, 45, 0xacf1e11ed5e8ede1},    // resize, 55 touched
	{0, 0, 0xcbf29ce484222325},      // resize to the current size: no work
	{303, 176, 0xfbc438ae4aa3c7dd},  // resize, 473 touched
	{11, 13, 0xe40c72fdb571be06},    // swap, 19 touched
	{1016, 389, 0x4f1b498dc11b44a7}, // resize, 1403 touched
	{946, 473, 0x6aceea23cd8602c8},  // resize, 1410 touched
	{1103, 175, 0x2196052dc02687f0}, // resize, 1273 touched
	{0, 0, 0xcbf29ce484222325},      // resize to the current size: no work
	{5, 9, 0x8f83f54da4ffa37d},      // swap, 11 touched
	{0, 0, 0xcbf29ce484222325},      // resize to the current size: no work
	{51, 246, 0x444b0b652cdb7bc0},   // resize, 292 touched
	{11, 11, 0x784c9bcfc386d5eb},    // swap, 15 touched
	{470, 800, 0x4ce8281800fd58f},   // resize, 1266 touched
	{0, 0, 0xcbf29ce484222325},      // resize to the current size: no work
	{1197, 105, 0xc035afebbccbcd67}, // swap, 1295 touched
	{15, 18, 0xa165267ca98d2ec1},    // resize, 29 touched
	{1777, 311, 0x9b1b2f5ede707a7e}, // swap, 1209 touched (levels repaired: gates popped twice)
	{1718, 6, 0x1cda137ef72b1509},   // resize, 1720 touched
	{1355, 92, 0x37987df9a6e27c45},  // swap, 1436 touched
	{105, 245, 0xcc4f9d5a6b5ca9fc},  // swap, 345 touched
	{0, 0, 0xcbf29ce484222325},      // resize to the current size: no work
	{13, 9, 0x3db106af4d70a297},     // swap, 15 touched
	{590, 783, 0x58dc35470e9d9f86},  // swap, 1340 touched
	{30, 26, 0x9b553ed4f519806d},    // resize, 52 touched
	{11, 6, 0x6b1a6f80cb3472f1},     // resize, 14 touched
	{82, 13, 0xcad161d933908ff2},    // resize, 91 touched
	{8, 9, 0xf5e2f5cabac84459},      // swap, 14 touched
	{19, 42, 0xbadb06a91cf51b3b},    // swap, 53 touched
	{56, 16, 0x14abbaafab9b21e3},    // swap, 49 touched
}

// TestIncrementalWorkGolden pins the incremental timer's propagation
// order end to end: a fixed seeded script of swaps and resizes on s5378,
// where every Update must match the full-Analyze oracle to 1e-9 and
// perform exactly the recorded work, re-timing the recorded gates in the
// recorded order.
func TestIncrementalWorkGolden(t *testing.T) {
	lib := library.Default035()
	n, err := gen.Generate("s5378")
	if err != nil {
		t.Fatal(err)
	}
	place.Place(n, lib, place.Options{Seed: 7, MovesPerCell: 5})
	sizing.SeedForLoad(n, lib, 0)
	inc := sta.NewIncremental(n, lib, 0)
	defer inc.Close()
	inc.FullFraction = 2
	clock := inc.Timing().Clock

	m := &mutator{rng: rand.New(rand.NewSource(15)), n: n}
	prev := inc.Stats()
	for i, want := range incWorkGolden {
		if m.rng.Intn(2) == 0 {
			if m.randomSwap() == nil {
				t.Fatalf("step %d: no swap available", i)
			}
		} else if !m.randomResize() {
			t.Fatalf("step %d: no gate to resize", i)
		}
		requireMatch(t, fmt.Sprintf("step %d", i), n, lib, clock, inc.Update())
		st := inc.Stats()
		h := fnv.New64a()
		for _, g := range inc.LastTouched() {
			fmt.Fprintf(h, "%d,", g.ID())
		}
		got := struct {
			arr, req int
			touched  uint64
		}{st.ArrivalRecomputes - prev.ArrivalRecomputes, st.RequiredRecomputes - prev.RequiredRecomputes, h.Sum64()}
		if got != want {
			t.Fatalf("step %d: work %+v, want %+v", i, got, want)
		}
		prev = st
	}
}
