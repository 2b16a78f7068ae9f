package sta_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/place"
	"repro/internal/rewire"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/supergate"
)

// same reports bit equality. Comparing bits rather than values keeps the
// +inf == +inf case (a gate that reaches no primary output) and tells
// -0 from +0.
func same(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

func sameEdge(a, b sta.Edge) bool { return same(a.Rise, b.Rise) && same(a.Fall, b.Fall) }

// requireMatch asserts that the incremental view is bit-identical to a
// fresh ground-truth analysis under the same bounds — arrivals, required
// times, loads, critical delay and lateness — and that its pin table
// agrees with the scan.
func requireMatch(t testing.TB, step string, n *network.Network, lib *library.Library, clock float64, got *sta.Timing) {
	t.Helper()
	want := requireArrivalsMatch(t, step, n, lib, clock, got)
	n.Gates(func(g *network.Gate) {
		if gr, wr := got.Required(g), want.Required(g); !sameEdge(gr, wr) {
			t.Fatalf("%s: required of %v diverged: incremental %+v, full %+v", step, g, gr, wr)
		}
	})
	requirePinTable(t, step, n, got)
}

// requireArrivalsMatch asserts what UpdateArrivals keeps current — every
// arrival, load and pin wire delay, the critical delay and the lateness —
// bit for bit against a fresh analysis under the same bounds, which it
// returns.
func requireArrivalsMatch(t testing.TB, step string, n *network.Network, lib *library.Library, clock float64, got *sta.Timing) *sta.Timing {
	t.Helper()
	want := sta.AnalyzeBounded(n, lib, clock, got.Bounds())
	if !same(want.CriticalDelay, got.CriticalDelay) || !same(want.Lateness, got.Lateness) {
		t.Fatalf("%s: critical delay/lateness diverged: incremental %v/%v, full %v/%v",
			step, got.CriticalDelay, got.Lateness, want.CriticalDelay, want.Lateness)
	}
	n.Gates(func(g *network.Gate) {
		if ga, wa := got.Arrival(g), want.Arrival(g); !sameEdge(ga, wa) {
			t.Fatalf("%s: arrival of %v diverged: incremental %+v, full %+v", step, g, ga, wa)
		}
		if !same(got.Load(g), want.Load(g)) {
			t.Fatalf("%s: load of %v diverged: incremental %v, full %v", step, g, got.Load(g), want.Load(g))
		}
		for j, d := range g.Fanins() {
			if gw, ww := got.PinWireDelay(d, g, j), want.PinWireDelay(d, g, j); !same(gw, ww) {
				t.Fatalf("%s: pin %d of %v diverged: incremental %v, full %v", step, j, g, gw, ww)
			}
		}
	})
	return want
}

// requireForgotten asserts that every gate of gates the network has
// deleted reads as the zero value, as it does in a fresh analysis.
func requireForgotten(t testing.TB, step string, n *network.Network, tm *sta.Timing, gates []*network.Gate) {
	t.Helper()
	for _, g := range gates {
		if n.Live(g) {
			continue
		}
		if a, q, l := tm.Arrival(g), tm.Required(g), tm.Load(g); a != (sta.Edge{}) || q != (sta.Edge{}) || l != 0 {
			t.Fatalf("%s: deleted gate %v reads arrival %+v required %+v load %v", step, g, a, q, l)
		}
	}
}

// requirePinTable asserts that PinWireDelay agrees bit for bit with the
// WireDelay scan on every pin of every live gate, whatever state the
// Timing's nets are in relative to the network.
func requirePinTable(t testing.TB, step string, n *network.Network, tm *sta.Timing) {
	t.Helper()
	n.Gates(func(g *network.Gate) {
		for j, d := range g.Fanins() {
			if got, want := tm.PinWireDelay(d, g, j), tm.WireDelay(d, g); !same(got, want) {
				t.Fatalf("%s: pin %d of %v (driver %v): table %v, scan %v", step, j, g, d, got, want)
			}
		}
	})
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
// timer must match a fresh full Analyze bit for bit.
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

// TestIncrementalRollback rejects random batches of supergate swaps
// (inverting ones create and then remove inverters) and resizes the way
// the optimizer does: Checkpoint, apply, Update, undo in reverse order,
// Rollback. Every accessor, each pin's wire delay through the pin table
// and the scan included, must then read bit for bit what it read at the
// checkpoint, and the accepted batches in between must keep matching a
// fresh analysis. The steps cycle through four rejections: a batch
// rolled back from the undo log alone, without drawing a Timing; two
// batches rolled back to one checkpoint; and one after a batch accepted
// against an earlier checkpoint. The last steps reject a logged batch
// and then one that falls back to a full analysis, together: the first
// time while the log holds the first batch's entries, which the timer
// writes back into the copy it takes, and then on a timer that copies
// every checkpoint at once, as a timer does once it has taken a copy.
func TestIncrementalRollback(t *testing.T) {
	for _, name := range []string{"c432", "s5378"} {
		t.Run(name, func(t *testing.T) {
			lib := library.Default035()
			n, err := gen.Generate(name)
			if err != nil {
				t.Fatal(err)
			}
			place.Place(n, lib, place.Options{Seed: 7, MovesPerCell: 5})
			sizing.SeedForLoad(n, lib, 0)
			inc := sta.NewIncremental(n, lib, 0)
			defer inc.Release()
			inc.FullFraction = 2
			clock := inc.Timing().Clock
			m := &mutator{rng: rand.New(rand.NewSource(5)), n: n}
			edit := func() (string, func()) {
				if m.rng.Intn(3) == 0 {
					g := n.GateSlice()[m.rng.Intn(n.NumGates())]
					if g.IsInput() {
						return "none", func() {}
					}
					old := g.SizeIdx
					n.SetSize(g, m.rng.Intn(library.NumSizes))
					return "resize", func() { n.SetSize(g, old) }
				}
				if undo := m.randomSwap(); undo != nil {
					return "swap", undo
				}
				return "none", func() {}
			}
			fallbacks := 0
			for i := 0; i < 16; i++ {
				step := fmt.Sprintf("step %d", i)
				k, arrivalsOnly, window := 1+m.rng.Intn(8), i%2 == 1, i%4 >= 2
				drawn, full := sta.DrawnTimings(), inc.Stats().FullAnalyses
				switch {
				case i >= 12:
					fallbackRolledBack(t, step+" fallback", n, lib, clock, inc, edit, k, arrivalsOnly, window)
					if inc.Stats().FullAnalyses != full+1 {
						t.Fatalf("%s: the batch did not fall back", step)
					}
					fallbacks++
				case i%3 == 0:
					rolledBackBatch(t, step+" logged", n, lib, clock, inc, edit, k, arrivalsOnly, window)
				case i%3 == 1:
					rolledBackTwice(t, step+" twice", n, lib, clock, inc, edit, k, arrivalsOnly, window)
				default:
					acceptedThenRolledBack(t, step, n, lib, clock, inc, edit, k, arrivalsOnly, window)
				}
				if copied := sta.CheckpointCopied(inc); copied != (i >= 12) {
					t.Fatalf("%s: checkpoint copied %v, want %v", step, copied, i >= 12)
				}
				if d := sta.DrawnTimings() - drawn; i < 12 && d != 0 {
					t.Fatalf("%s: a logged rollback drew %d Timings", step, d)
				}
				if i%3 == 2 {
					// An accepted batch between rejections.
					edit()
					edit()
					n.Sweep()
					requireMatch(t, step+" accepted", n, lib, clock, inc.Update())
				}
			}
			if st := inc.Stats(); st.FullAnalyses != 1+fallbacks {
				t.Fatalf("expected the construction-time full analysis and %d fallbacks: %+v", fallbacks, st)
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
// where every Update must match the full-Analyze oracle bit for bit and
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

// staleNet is a small placed network for the pin-table tests: drivers d
// and e, with d feeding pin 0 of s and both feeding s2.
type staleNet struct {
	n              *network.Network
	d, e, x, s, s2 *network.Gate
	inc            *sta.Incremental
	clock          float64
}

func newStaleNet(lib *library.Library) *staleNet {
	n := network.New("stale")
	a, b := n.AddInput("a"), n.AddInput("b")
	k := &staleNet{n: n}
	k.d = n.AddGate("d", logic.Nand, a, b)
	k.e = n.AddGate("e", logic.Nor, a, b)
	k.x = n.AddGate("x", logic.Inv, b)
	k.s = n.AddGate("s", logic.Nand, k.d, k.x)
	k.s2 = n.AddGate("s2", logic.Nand, k.d, k.e)
	for _, g := range []*network.Gate{
		k.s, k.s2, n.AddGate("dt", logic.Inv, k.d), n.AddGate("et", logic.Inv, k.e),
	} {
		n.MarkOutput(g)
	}
	n.Gates(func(g *network.Gate) {
		g.X, g.Y, g.Placed = float64(7*g.ID()%11)*20, float64(g.ID()*g.ID()%13)*15, true
	})
	k.inc = sta.NewIncremental(n, lib, 0)
	k.inc.FullFraction = 2
	k.clock = k.inc.Timing().Clock
	return k
}

// TestPinTableStaleTag rewires a pin away from its driver d and back,
// with d's net rebuilt in between: the pin's slot then holds the interim
// driver's delay, and only its generation tag tells the table that d's
// current net no longer feeds the pin. Every state, before and after each
// Update, is checked against the scan, once from a fresh generation
// counter and once across its wrap.
func TestPinTableStaleTag(t *testing.T) {
	for _, start := range []uint32{0, math.MaxUint32 - 3} {
		t.Run(fmt.Sprintf("gen=%d", start), func(t *testing.T) {
			lib := library.Default035()
			k := newStaleNet(lib)
			n, d, e, s, s2, inc, clock := k.n, k.d, k.e, k.s, k.s2, k.inc, k.clock
			defer inc.Close()
			sta.SetGeneration(inc.Timing(), start)

			step := func(name string, edit func()) {
				t.Helper()
				edit()
				requirePinTable(t, name+" (pending)", n, inc.Timing())
				requireMatch(t, name, n, lib, clock, inc.Update())
			}
			step("s.0 to e", func() { n.ReplaceFanin(s, 0, e) })
			if w := inc.Timing().WireDelay(e, s); w == 0 {
				t.Fatalf("e's delay into s is 0; the stale slot would be indistinguishable")
			}
			// The slot of s's pin 0 is now tagged by e's net; d's current
			// net (rebuilt by the last Update) no longer lists s.
			n.ReplaceFanin(s, 0, d)
			if got := inc.Timing().PinWireDelay(d, s, 0); got != 0 {
				t.Fatalf("pin rewired back to d reads %v, d's current net does not feed it", got)
			}
			requirePinTable(t, "s.0 back to d (pending)", n, inc.Timing())
			requireMatch(t, "s.0 back to d", n, lib, clock, inc.Update())
			// d now feeds s2 through both pins: duplicate sinks.
			step("s2.1 to d", func() { n.ReplaceFanin(s2, 1, d) })
			step("s2.0 to e and resize d", func() {
				n.ReplaceFanin(s2, 0, e)
				n.SetSize(d, 2)
			})
			step("inverter on s.1", func() {
				inv := n.InsertInverter(network.Pin{Gate: s, Index: 1})
				inv.X, inv.Y, inv.Placed = 33, 44, true
			})
		})
	}
}

// TestPinTableGenerationWrap checks that the generation wrap clears every
// pin tag. The seed builds the nets in creation order with generations
// 1, 2, ..., so pin 0 of s is tagged with d's generation 3. The counter
// is driven across the wrap by one rebuild, then set so that e's next
// rebuild draws generation 3 again; rewiring s's pin to e must not find
// the pre-wrap tag looking current.
func TestPinTableGenerationWrap(t *testing.T) {
	lib := library.Default035()
	k := newStaleNet(lib)
	defer k.inc.Close()
	tm := k.inc.Timing()
	sta.SetGeneration(tm, math.MaxUint32)
	k.n.Touch(k.x)
	requireMatch(t, "wrap", k.n, lib, k.clock, k.inc.Update())
	// After the wrap every current net is stamped 1 and x's rebuild drew
	// 2, so 3 is fresh.
	sta.SetGeneration(tm, 2)
	k.n.Touch(k.e)
	requireMatch(t, "e rebuilt with generation 3", k.n, lib, k.clock, k.inc.Update())
	k.n.ReplaceFanin(k.s, 0, k.e)
	requirePinTable(t, "s.0 to e (pending)", k.n, tm)
	requireMatch(t, "s.0 to e", k.n, lib, k.clock, k.inc.Update())
}

// TestIncrementalPooledReuse re-seeds one timer — the reuse a pooled
// timer goes through — from a larger network onto a smaller one, whose
// IDs then index arrays and a pin table still holding the first
// network's state, and drives it through swaps (which create gates past
// the new network's bound), resizes and sweeps.
func TestIncrementalPooledReuse(t *testing.T) {
	lib := library.Default035()
	placed := func(name string) *network.Network {
		n, err := gen.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		place.Place(n, lib, place.Options{Seed: 5, MovesPerCell: 5})
		return n
	}
	big, small := placed("s5378"), placed("c432")
	inc := sta.NewIncremental(big, lib, 0)
	inc.FullFraction = 2
	m := &mutator{rng: rand.New(rand.NewSource(3)), n: big}
	for i := 0; i < 4; i++ {
		m.randomSwap()
		m.randomResize()
		inc.Update()
	}
	sta.Restart(inc, small, lib, 0)
	defer inc.Close()
	inc.FullFraction = 2
	clock := inc.Timing().Clock
	requireMatch(t, "re-seeded", small, lib, clock, inc.Timing())
	m = &mutator{rng: rand.New(rand.NewSource(4)), n: small}
	for i := 0; i < 12; i++ {
		m.randomSwap()
		m.randomResize()
		if i%4 == 3 {
			small.Sweep()
		}
		requireMatch(t, fmt.Sprintf("step %d", i), small, lib, clock, inc.Update())
	}
}

// TestUpdateArrivalsMatchesAnalyze drives the optimizer's guard path:
// arrivals-only updates whose backward work waits for the next Update.
// After each UpdateArrivals every arrival, load, pin wire delay, the
// critical delay and the lateness must equal a fresh analysis bit for
// bit, and the stale view must refuse Version, Scratch.Begin and
// Checkpoint; after the next Update every accessor must match, required
// times included, and deleted gates must read as zero. The script covers
// two arrivals-only batches merged into one Update, a Sweep that deletes
// pending seeds, an arrivals-only full fallback (finished at once, and
// after a further batch and a Sweep), and a Rollback after an
// arrivals-only update, incremental or full, after which the next batch
// must cost exactly what it costs a timer seeded on the restored network.
func TestUpdateArrivalsMatchesAnalyze(t *testing.T) {
	for _, name := range []string{"c432", "s5378"} {
		t.Run(name, func(t *testing.T) {
			lib := library.Default035()
			n, err := gen.Generate(name)
			if err != nil {
				t.Fatal(err)
			}
			place.Place(n, lib, place.Options{Seed: 7, MovesPerCell: 5})
			sizing.SeedForLoad(n, lib, 0)
			inc := sta.NewIncremental(n, lib, 0)
			defer inc.Release()
			inc.FullFraction = 2
			clock := inc.Timing().Clock
			rng := rand.New(rand.NewSource(13))
			m := &mutator{rng: rng, n: n}
			gates := n.GateSlice()

			// resize moves a random logic gate to another size and
			// returns its undo.
			resize := func() func() {
				for {
					g := n.GateSlice()[rng.Intn(n.NumGates())]
					if g.IsInput() {
						continue
					}
					old := g.SizeIdx
					n.SetSize(g, (old+1+rng.Intn(library.NumSizes-1))%library.NumSizes)
					return func() { n.SetSize(g, old) }
				}
			}
			arrivalsOnly := func(step string) {
				t.Helper()
				tm := inc.UpdateArrivals()
				requireArrivalsMatch(t, step, n, lib, clock, tm)
				requireStale(t, step, inc)
				gates = append(gates, n.GateSlice()...)
			}
			update := func(step string) {
				t.Helper()
				tm := inc.Update()
				requireMatch(t, step, n, lib, clock, tm)
				requireForgotten(t, step, n, tm, gates)
			}
			// orphan resizes a gate with one sink, which an arrivals-only
			// update then seeds, and detaches that sink's pin onto a
			// primary input, so the next Sweep deletes the gate.
			orphan := func(step string) {
				t.Helper()
				var g *network.Gate
				for g == nil || g.IsInput() || g.PO || g.NumFanouts() != 1 {
					g = n.GateSlice()[rng.Intn(n.NumGates())]
				}
				n.SetSize(g, (g.SizeIdx+1)%library.NumSizes)
				arrivalsOnly(step + " seeds the gate")
				s := g.Fanouts()[0]
				for j, f := range s.Fanins() {
					if f == g {
						n.ReplaceFanin(s, j, n.Inputs()[0])
						break
					}
				}
				if removed := n.Sweep(); removed == 0 {
					t.Fatalf("%s: sweep removed nothing", step)
				}
			}

			for i := 0; i < 4; i++ {
				step := fmt.Sprintf("round %d", i)

				resize()
				m.randomSwap()
				arrivalsOnly(step + " batch 1")
				resize()
				arrivalsOnly(step + " batch 2")
				update(step + " two batches merged")

				orphan(step + " sweep")
				update(step + " sweep of pending seeds")

				inc.FullFraction = 0
				resize()
				arrivalsOnly(step + " full fallback")
				if !inc.LastUpdateFull() {
					t.Fatalf("%s: FullFraction 0 did not fall back", step)
				}
				inc.FullFraction = 2
				if i%2 == 0 {
					update(step + " fallback finished at once")
				} else {
					resize()
					arrivalsOnly(step + " batch after fallback")
					orphan(step + " sweep after fallback")
					update(step + " fallback finished after a batch and a sweep")
				}

				for _, full := range []bool{false, true} {
					rb := fmt.Sprintf("%s rollback (full %v)", step, full)
					want := timerReads(n, inc, inc.Timing())
					inc.Checkpoint()
					if full {
						inc.FullFraction = 0
					}
					undos := []func(){resize()}
					if undo := m.randomSwap(); undo != nil {
						undos = append(undos, undo)
					}
					arrivalsOnly(rb + " applied")
					inc.FullFraction = 2
					for k := len(undos) - 1; k >= 0; k-- {
						undos[k]()
					}
					requireReads(t, rb, n, inc, inc.Rollback(), want)
					requireNothingLeft(t, rb, n, lib, clock, inc, resize)
				}
			}
		})
	}
}

// requireStale asserts that a view with required times pending refuses
// everything that would read its slacks.
func requireStale(t testing.TB, step string, inc *sta.Incremental) {
	t.Helper()
	for what, f := range map[string]func(){
		"Version":       func() { inc.Timing().Version() },
		"Scratch.Begin": func() { sta.NewScratch().Begin(inc.Timing()) },
		"Checkpoint":    inc.Checkpoint,
	} {
		if !panics(f) {
			t.Fatalf("%s: %s accepted a view with required times pending", step, what)
		}
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// requireNothingLeft asserts that inc, just rolled back, kept nothing of
// the rejected batch: the next batch must cost it exactly what it costs
// a timer seeded on the restored network — the same arrival and required
// recomputes and the same re-timed gates in the same order — and both
// must match a fresh analysis.
func requireNothingLeft(t testing.TB, step string, n *network.Network, lib *library.Library, clock float64, inc *sta.Incremental, edit func() func()) {
	t.Helper()
	ref := sta.NewIncremental(n, lib, clock)
	defer ref.Release()
	ref.FullFraction = inc.FullFraction
	before, refBefore := inc.Stats(), ref.Stats()
	edit()
	requireMatch(t, step+" next batch", n, lib, clock, inc.Update())
	requireMatch(t, step+" next batch (reference)", n, lib, clock, ref.Update())
	got, want := inc.Stats(), ref.Stats()
	if g, w := [2]int{got.ArrivalRecomputes - before.ArrivalRecomputes, got.RequiredRecomputes - before.RequiredRecomputes},
		[2]int{want.ArrivalRecomputes - refBefore.ArrivalRecomputes, want.RequiredRecomputes - refBefore.RequiredRecomputes}; g != w {
		t.Fatalf("%s: next batch recomputed %v (arrival, required), a fresh timer %v", step, g, w)
	}
	if g, w := inc.LastTouched(), ref.LastTouched(); !slices.Equal(g, w) || inc.LastUpdateFull() != ref.LastUpdateFull() {
		t.Fatalf("%s: next batch re-timed %d gates (full %v), a fresh timer %d (full %v)",
			step, len(g), inc.LastUpdateFull(), len(w), ref.LastUpdateFull())
	}
}
