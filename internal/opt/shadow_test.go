package opt

// The shadow: at every phase start of real optimizer runs, the run's
// incremental timer, supergate cache and scoring engine must read what a
// fresh analysis, a fresh extraction and a fresh engine read on the same
// network. The corpus-wide run is behind the corpus build tag
// (shadow_corpus_test.go, make corpus).

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/library"
	"repro/internal/network"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/supergate"
)

// TestPhaseStartsMatchFreshState runs the shadow on three circuits under
// every golden config.
func TestPhaseStartsMatchFreshState(t *testing.T) {
	if testing.Short() {
		t.Skip("full optimizer runs")
	}
	for _, name := range []string{"c1908", "s5378", "c6288"} {
		shadowGolden(t, name, 1)
	}
}

// shadowGolden runs every golden config on the placed circuit with the
// phase-start hook checking the run against fresh state. It also checks
// that a phase after one that committed nothing starts with a cache flush
// that did no work: the rolled-back batch left nothing to re-extract.
func shadowGolden(t *testing.T, name string, seed int64) {
	base := goldenPlacement(t, name, seed)
	for _, cfg := range goldenConfigs {
		t.Run(fmt.Sprintf("%s/seed%d/%s", name, seed, cfg.name), func(t *testing.T) {
			n, _ := base.Clone()
			phases, committed := 0, 0
			var flushed supergate.CacheStats
			setPhaseHook(t, func(r run, obj sizing.Objective, ranked []Move) {
				phases++
				step := fmt.Sprintf("phase %d (%s)", phases, phaseName(obj))
				tm, ext := r.inc.Timing(), r.cache.Extraction()
				requireFreshTiming(t, step, r.n, r.lib, tm)
				requireFreshExtraction(t, step, r.n, ext)
				if r.strat == GS {
					ext = nil
				}
				fresh := NewEngine(1)
				defer fresh.Release()
				requireSameMoves(t, step, ranked, fresh.Moves(tm, r.strat, obj, r.o, ext))
				c, now := r.res.Swaps+r.res.Resizes, r.cache.Stats()
				if phases > 1 && c == committed && now != flushed {
					t.Fatalf("%s: the last phase committed nothing, yet the cache flush did work: %+v, then %+v", step, flushed, now)
				}
				committed, flushed = c, now
			})
			optimizeGolden(n, cfg)
			if phases == 0 {
				t.Fatal("no phase ran")
			}
		})
	}
}

// requireFreshTiming asserts that the timer's view reads bit for bit what
// a fresh analysis of n under the same clock and bounds reads: every
// arrival, required time, load and pin wire delay, the critical delay
// and the lateness.
func requireFreshTiming(t *testing.T, step string, n *network.Network, lib *library.Library, got *sta.Timing) {
	t.Helper()
	want := sta.AnalyzeBounded(n, lib, got.Clock, got.Bounds())
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	sameEdge := func(a, b sta.Edge) bool { return same(a.Rise, b.Rise) && same(a.Fall, b.Fall) }
	if !same(got.CriticalDelay, want.CriticalDelay) || !same(got.Lateness, want.Lateness) {
		t.Fatalf("%s: critical delay/lateness %v/%v, fresh analysis %v/%v",
			step, got.CriticalDelay, got.Lateness, want.CriticalDelay, want.Lateness)
	}
	n.Gates(func(g *network.Gate) {
		if !sameEdge(got.Arrival(g), want.Arrival(g)) || !sameEdge(got.Required(g), want.Required(g)) ||
			!same(got.Load(g), want.Load(g)) {
			t.Fatalf("%s: %v reads arrival %+v required %+v load %v, fresh analysis %+v %+v %v", step, g,
				got.Arrival(g), got.Required(g), got.Load(g), want.Arrival(g), want.Required(g), want.Load(g))
		}
		for j, d := range g.Fanins() {
			if gw, ww := got.PinWireDelay(d, g, j), want.PinWireDelay(d, g, j); !same(gw, ww) {
				t.Fatalf("%s: pin %d of %v has wire delay %v, fresh analysis %v", step, j, g, gw, ww)
			}
		}
	})
}

// requireFreshExtraction asserts that the cached extraction has the
// supergates, leaves and coverage of a fresh Extract of n.
func requireFreshExtraction(t *testing.T, step string, n *network.Network, got *supergate.Extraction) {
	t.Helper()
	want := supergate.Extract(n)
	if gl, wl := supergateLines(got), supergateLines(want); !slices.Equal(gl, wl) {
		t.Fatalf("%s: cached extraction diverged from a fresh Extract\n--- cached ---\n%s\n--- fresh ---\n%s",
			step, strings.Join(gl, "\n"), strings.Join(wl, "\n"))
	}
	if gc, wc := got.Coverage(), want.Coverage(); gc != wc {
		t.Fatalf("%s: cached coverage %v, fresh Extract %v", step, gc, wc)
	}
}

// supergateLines renders each supergate of e as one line (root, kind,
// covered gates in order, leaves in order), sorted.
func supergateLines(e *supergate.Extraction) []string {
	lines := make([]string, 0, len(e.Supergates))
	for _, sg := range e.Supergates {
		var b strings.Builder
		fmt.Fprintf(&b, "root=%d kind=%v gates=", sg.Root.ID(), sg.Kind)
		for _, g := range sg.Gates {
			fmt.Fprintf(&b, "%d,", g.ID())
		}
		b.WriteString(" leaves=")
		for _, l := range sg.Leaves {
			fmt.Fprintf(&b, "%d.%d<-%d/%d/%d,", l.Pin.Gate.ID(), l.Pin.Index, l.Driver.ID(), l.Imp, l.Depth)
		}
		lines = append(lines, b.String())
	}
	slices.Sort(lines)
	return lines
}
