package supergate_test

// The cache's contract: after any sequence of evented mutations, the
// cached Extraction is indistinguishable from a from-scratch Extract of
// the current network — same partition into supergates, same leaves with
// the same implied values and depths, same redundancies. The property
// test below drives randomized batches of every structural mutation the
// optimizer performs (non-inverting and inverting swaps, undos, DeMorgan
// dualization, redundancy removal, inverter insertion, sweeps, resizes)
// and compares canonical signatures after each batch. Every other round
// also rejects a batch the optimizer's way (exact undo, then
// Cache.Rollback), which must leave the cache current at no cost.
//
// This file lives in package supergate_test because it exercises the
// cache through rewire's transformations (rewire imports supergate).

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/network"
	"repro/internal/rewire"
	"repro/internal/supergate"
)

// signature renders an extraction canonically: one line per supergate
// (root, kind, covered gates in traversal order, leaves in order), sorted
// by root ID, plus the redundancy multiset.
func signature(e *supergate.Extraction) string {
	var lines []string
	for _, sg := range e.Supergates {
		var b strings.Builder
		fmt.Fprintf(&b, "root=%d kind=%v gates=[", sg.Root.ID(), sg.Kind)
		for _, g := range sg.Gates {
			fmt.Fprintf(&b, "%d ", g.ID())
		}
		b.WriteString("] leaves=[")
		for _, l := range sg.Leaves {
			fmt.Fprintf(&b, "(%d.%d<-%d imp=%d d=%d) ",
				l.Pin.Gate.ID(), l.Pin.Index, l.Driver.ID(), l.Imp, l.Depth)
		}
		b.WriteString("]")
		lines = append(lines, b.String())
	}
	sort.Strings(lines)
	var reds []string
	for _, r := range e.Redundancies {
		reds = append(reds, fmt.Sprintf("stem=%d root=%d conflict=%v vals=%v",
			r.Stem.ID(), r.Root.ID(), r.Conflict, r.Values))
	}
	sort.Strings(reds)
	return strings.Join(lines, "\n") + "\n--\n" + strings.Join(reds, "\n")
}

// checkMirror verifies byGate consistency and signature equality against
// a fresh extraction.
func checkMirror(t *testing.T, n *network.Network, c *supergate.Cache, when string) {
	t.Helper()
	got := c.Extraction()
	want := supergate.Extract(n)
	if gs, ws := signature(got), signature(want); gs != ws {
		t.Fatalf("%s: cached extraction diverged from fresh Extract\n--- cached ---\n%s\n--- fresh ---\n%s", when, gs, ws)
	}
	// Of must cover exactly the live non-input gates and agree with the
	// supergate membership; Coverage counts every index entry, so a
	// stale entry for a removed gate would move it.
	n.Gates(func(g *network.Gate) {
		if g.IsInput() {
			return
		}
		gsg, wsg := got.Of(g), want.Of(g)
		if gsg == nil || wsg == nil || gsg.Root.ID() != wsg.Root.ID() {
			t.Fatalf("%s: Of mismatch at %v: cached %v fresh %v", when, g, gsg, wsg)
		}
	})
	if gc, wc := got.Coverage(), want.Coverage(); gc != wc {
		t.Fatalf("%s: cached coverage %v, fresh %v", when, gc, wc)
	}
	if err := supergate.CheckLeafConsumers(c); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

func testProfile(seed int64) gen.Profile {
	return gen.Profile{
		Name: fmt.Sprintf("cachetest%d", seed), Seed: seed,
		NumPI: 24, TargetGates: 300,
		XorFrac: 0.15, NorFrac: 0.35, InvFrac: 0.15,
		Locality: 0.5, MaxFanin: 3,
	}
}

func TestCacheMatchesFreshExtractUnderRandomMutations(t *testing.T) {
	rounds := 10
	seeds := 6
	if testing.Short() {
		rounds, seeds = 4, 2
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		n := gen.FromProfile(testProfile(seed))
		c := supergate.NewCache(n)
		rng := rand.New(rand.NewSource(seed * 977))
		checkMirror(t, n, c, "initial")
		var undos []rewire.Undo
		for round := 0; round < rounds; round++ {
			ext := c.Extraction()
			nt := ext.NonTrivial()
			if len(nt) == 0 {
				t.Fatal("degenerate test network: no non-trivial supergates")
			}
			if round%2 == 1 {
				rolledBackBatch(t, n, c, nt, rng, fmt.Sprintf("seed %d round %d", seed, round))
			}
			// One batch: several mutations back to back, flushed once.
			batch := 1 + rng.Intn(6)
			for b := 0; b < batch; b++ {
				switch op := rng.Intn(10); {
				case op < 4: // random legal swap
					sg := nt[rng.Intn(len(nt))]
					swaps := rewire.Enumerate(sg)
					if len(swaps) == 0 {
						continue
					}
					undos = append(undos, rewire.Apply(n, swaps[rng.Intn(len(swaps))]))
				case op < 5: // undo the latest swap, possibly of an earlier batch
					if len(undos) > 0 {
						undos[len(undos)-1]()
						undos = undos[:len(undos)-1]
					}
				case op < 6: // DeMorgan-dualize an and-or supergate
					sg := nt[rng.Intn(len(nt))]
					if sg.Kind == supergate.AndOr {
						if _, err := rewire.DeMorgan(n, sg); err != nil {
							t.Fatal(err)
						}
						// The extraction used for this batch is stale now;
						// stop mutating through it.
						b = batch
					}
				case op < 7: // remove one case-2 redundancy, if any
					for _, r := range ext.Redundancies {
						if r.Conflict {
							continue
						}
						sg := ext.Of(r.Root)
						if sg == nil {
							continue
						}
						if err := rewire.RemoveRedundancy(n, sg, r); err == nil {
							b = batch // extraction stale
							undos = undos[:0]
							break
						}
					}
				case op < 9: // resizes must not invalidate anything
					before := c.Stats()
					g := randomLogicGate(n, rng)
					if g != nil {
						n.SetSize(g, (g.SizeIdx+1)%3)
					}
					if after := c.Stats(); after.Invalidated != before.Invalidated {
						t.Fatal("SetSize invalidated supergates")
					}
				default: // sweep dead logic
					n.Sweep()
					undos = undos[:0]
				}
			}
			if err := n.Validate(); err != nil {
				t.Fatalf("mutation broke the network: %v", err)
			}
			checkMirror(t, n, c, fmt.Sprintf("seed %d round %d", seed, round))
		}
		st := c.Stats()
		if st.IncrementalFlushes == 0 {
			t.Fatalf("cache never flushed incrementally: %+v", st)
		}
		c.Close()
	}
}

// rolledBackBatch applies a random batch of swaps and resizes from the
// flushed extraction, undoes it in reverse order and rolls the cache
// back, the way the optimizer rejects a batch. The cache must then be
// current without re-extracting anything.
func rolledBackBatch(t *testing.T, n *network.Network, c *supergate.Cache, nt []*supergate.Supergate, rng *rand.Rand, when string) {
	t.Helper()
	before := c.Stats()
	var undos []func()
	for k := 1 + rng.Intn(8); k > 0; k-- {
		if rng.Intn(4) == 0 {
			g := randomLogicGate(n, rng)
			old := g.SizeIdx
			n.SetSize(g, (old+1)%3)
			undos = append(undos, func() { n.SetSize(g, old) })
			continue
		}
		sg := nt[rng.Intn(len(nt))]
		if swaps := rewire.Enumerate(sg); len(swaps) > 0 {
			undos = append(undos, rewire.Apply(n, swaps[rng.Intn(len(swaps))]))
		}
	}
	n.BeginBatch()
	for i := len(undos) - 1; i >= 0; i-- {
		undos[i]()
	}
	n.EndBatch()
	c.Rollback()
	checkMirror(t, n, c, when+" after a rolled-back batch")
	if after := c.Stats(); after != before {
		t.Fatalf("%s: a rolled-back batch of %d moves cost the cache work: %+v, was %+v", when, len(undos), after, before)
	}
}

func randomLogicGate(n *network.Network, rng *rand.Rand) *network.Gate {
	var gates []*network.Gate
	n.Gates(func(g *network.Gate) {
		if !g.IsInput() {
			gates = append(gates, g)
		}
	})
	if len(gates) == 0 {
		return nil
	}
	return gates[rng.Intn(len(gates))]
}

// TestCacheFullFallback drives a batch that dirties most of the network
// and checks the cache falls back to (and recovers from) a full Extract.
func TestCacheFullFallback(t *testing.T) {
	n := gen.FromProfile(testProfile(99))
	c := supergate.NewCache(n)
	defer c.Close()
	full0 := c.Stats().FullExtractions
	// Mark every gate dirty via MarkOutput round-trips... MarkOutput is
	// one-way, so use SetGateType-free touch: inserting inverters on many
	// pins touches a wide region.
	count := 0
	n.Gates(func(g *network.Gate) {
		if !g.IsInput() && g.NumFanins() > 0 && count < n.NumGates() {
			n.InsertInverter(network.Pin{Gate: g, Index: 0})
			count++
		}
	})
	checkMirror(t, n, c, "after wide batch")
	if c.Stats().FullExtractions == full0 {
		t.Fatalf("expected a full-extraction fallback: %+v", c.Stats())
	}
}

// TestCacheRemovalPath exercises gate removal through the cache.
func TestCacheRemovalPath(t *testing.T) {
	n := gen.FromProfile(testProfile(7))
	c := supergate.NewCache(n)
	defer c.Close()
	removed := rewire.RemoveAllRedundancies(n)
	checkMirror(t, n, c, fmt.Sprintf("after removing %d redundancies", removed))
}
