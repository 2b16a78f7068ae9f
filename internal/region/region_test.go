package region

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/library"
	"repro/internal/network"
	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/sizing"
	"repro/internal/sta"
)

func lib() *library.Library { return library.Default035() }

func testProfile(seed int64, gates int) gen.Profile {
	return gen.Profile{
		Name: fmt.Sprintf("reg%d", seed), Seed: seed,
		NumPI: 24, TargetGates: gates,
		AdderBits: []int{6},
		XorFrac:   0.1, NorFrac: 0.4, InvFrac: 0.12,
		Locality: 0.55, MaxFanin: 3, Redundant: 3,
	}
}

func buildPlaced(t *testing.T, seed int64, gates int) *network.Network {
	t.Helper()
	n := gen.FromProfile(testProfile(seed, gates))
	place.Place(n, lib(), place.Options{Seed: seed, MovesPerCell: 6})
	sizing.SeedForLoad(n, lib(), 0)
	return n
}

func TestPartitionInvariants(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		n := buildPlaced(t, seed, 400)
		tm := sta.Analyze(n, lib(), 0)
		for _, o := range []Options{
			{},
			{Window: 0.02, GrowDepth: 1},
			{Window: 0.25, GrowDepth: 5, MaxRegions: 3},
		} {
			p := Build(n, tm, o)
			o.fill()
			if p.Seeds == 0 {
				t.Fatalf("seed %d: no seeds (worst slack must always qualify)", seed)
			}
			seen := make(map[*network.Gate]int)
			for ri, r := range p.Regions {
				if len(r.Interior) == 0 {
					t.Fatalf("empty region %d", ri)
				}
				for i, g := range r.Interior {
					if g.IsInput() {
						t.Fatalf("primary input %s in region %d", g, ri)
					}
					if i > 0 && r.Interior[i-1].ID() >= g.ID() {
						t.Fatalf("region %d interior not ID-sorted", ri)
					}
					if prev, dup := seen[g]; dup {
						t.Fatalf("gate %s in regions %d and %d", g, prev, ri)
					}
					seen[g] = ri
				}
			}
			if o.MaxRegions > 0 && len(p.Regions) > o.MaxRegions {
				t.Fatalf("MaxRegions %d exceeded: %d regions", o.MaxRegions, len(p.Regions))
			}
			// Every in-window gate must be covered by some region.
			thr := tm.WorstSlack() + o.Window*tm.Clock
			n.Gates(func(g *network.Gate) {
				if g.IsInput() || tm.Slack(g) > thr {
					return
				}
				if _, ok := seen[g]; !ok {
					t.Fatalf("near-critical gate %s (slack %.4f, thr %.4f) not in any region",
						g, tm.Slack(g), thr)
				}
			})
			if p.Covered() != len(seen) {
				t.Fatalf("Covered %d != %d distinct gates", p.Covered(), len(seen))
			}
		}
	}
}

// signature canonically renders structure for comparing stitched results.
// Lines are sorted: stitching recreates gates, so creation order — unlike
// names, wiring, sizes, and placement — is not preserved.
func signature(n *network.Network) string {
	var lines []string
	n.Gates(func(g *network.Gate) {
		var b strings.Builder
		fmt.Fprintf(&b, "%s:%v:s%d:po%v:(%.3f,%.3f,%v):[", g.Name(), g.Type, g.SizeIdx, g.PO, g.X, g.Y, g.Placed)
		for _, f := range g.Fanins() {
			b.WriteString(f.Name())
			b.WriteByte(',')
		}
		b.WriteString("]")
		lines = append(lines, b.String())
	})
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestExtractStitchIdentity is the roundtrip property: stitching back the
// unmodified extracted subnetworks — and then re-stitching pristine
// clones over the installed gates, a revert — leaves
// a network that is structurally valid, simulation-equivalent, and
// timing-identical to the original.
func TestExtractStitchIdentity(t *testing.T) {
	for _, seed := range []int64{2, 5} {
		n := buildPlaced(t, seed, 350)
		orig, _ := n.Clone()
		tm := sta.Analyze(n, lib(), 0)
		delay0 := tm.CriticalDelay

		p := Build(n, tm, Options{Window: 0.15, MaxRegions: 4})
		if len(p.Regions) == 0 {
			t.Fatal("no regions")
		}
		var exts []*Extracted
		var clones []*network.Network
		for _, r := range p.Regions {
			e := Extract(n, tm, r)
			if err := e.Net.Validate(); err != nil {
				t.Fatalf("extracted subnet invalid: %v", err)
			}
			if e.BoundaryOutputs == 0 {
				t.Fatalf("region with no boundary outputs")
			}
			c, _ := e.Net.Clone()
			exts = append(exts, e)
			clones = append(clones, c)
		}

		installed := make([][]*network.Gate, len(exts))
		for i, e := range exts {
			installed[i] = Stitch(n, e.Net, e.Region.Interior)
		}
		checkIdentical := func(stage string) {
			t.Helper()
			if err := n.Validate(); err != nil {
				t.Fatalf("%s: network invalid: %v", stage, err)
			}
			ce, err := sim.EquivalentRandom(orig, n, 8, 99)
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			if ce != nil {
				t.Fatalf("%s: function changed: %v", stage, ce)
			}
			after := sta.Analyze(n, lib(), 0)
			if math.Abs(after.CriticalDelay-delay0) > 1e-9 {
				t.Fatalf("%s: delay moved %.12f -> %.12f", stage, delay0, after.CriticalDelay)
			}
			if signature(orig) != signature(n) {
				t.Fatalf("%s: structural signature changed", stage)
			}
		}
		checkIdentical("stitch")

		// Rollback path: stitch the pristine clones over the installed
		// gates.
		for i := range exts {
			installed[i] = Stitch(n, clones[i], installed[i])
		}
		checkIdentical("rollback stitch")
	}
}

// TestExtractBoundsReproduceGlobalTiming: analyzing an extracted
// subnetwork under its pinned bounds reproduces the global interior
// timing — exactly on an unplaced network (no interconnect, so no star
// model is re-fit over the partial sink set), and closely on a placed one.
func TestExtractBoundsReproduceGlobalTiming(t *testing.T) {
	for _, placed := range []bool{false, true} {
		n := gen.FromProfile(testProfile(11, 300))
		if placed {
			place.Place(n, lib(), place.Options{Seed: 3, MovesPerCell: 6})
			sizing.SeedForLoad(n, lib(), 0)
		}
		tm := sta.Analyze(n, lib(), 0)
		tol := 1e-9
		if placed {
			// Star models over partial sink sets shift wire delays a
			// little; the reconcile analysis absorbs the difference.
			tol = 0.02 * tm.Clock
		}
		p := Build(n, tm, Options{Window: 0.15, MaxRegions: 3})
		for ri, r := range p.Regions {
			e := Extract(n, tm, r)
			sub := sta.AnalyzeBounded(e.Net, lib(), tm.Clock, e.Bounds)
			for _, g := range r.Interior {
				sg := e.Net.FindGate(g.Name())
				if sg == nil {
					t.Fatalf("region %d: interior gate %s missing from subnet", ri, g.Name())
				}
				ga, sa := tm.Arrival(g), sub.Arrival(sg)
				if math.Abs(ga.Rise-sa.Rise) > tol || math.Abs(ga.Fall-sa.Fall) > tol {
					t.Fatalf("placed=%v region %d %s: arrival %v vs %v (tol %g)",
						placed, ri, g.Name(), ga, sa, tol)
				}
				gl, sl := tm.Load(g), sub.Load(sg)
				if math.Abs(gl-sl) > tol {
					t.Fatalf("placed=%v region %d %s: load %v vs %v", placed, ri, g.Name(), gl, sl)
				}
				gr, sr := tm.Required(g), sub.Required(sg)
				// Required times can be +inf on both sides (dead cones).
				if finite(gr.Rise) || finite(sr.Rise) {
					if math.Abs(gr.Rise-sr.Rise) > tol || math.Abs(gr.Fall-sr.Fall) > tol {
						t.Fatalf("placed=%v region %d %s: required %v vs %v",
							placed, ri, g.Name(), gr, sr)
					}
				}
			}
		}
	}
}

func finite(x float64) bool { return x < math.MaxFloat64/2 }
