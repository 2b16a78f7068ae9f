package opt

// Properties of the rounds loop behind WithRegions and of the
// criticality-windowed optimizer: they must produce simulation-equivalent
// netlists, never regress the critical delay, land within 1 % of the full
// sequential run, and the window must evaluate no more candidates than
// the full run.

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/network"
	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/supergate"
)

// regionCircuits returns named, placed, load-seeded copies of the
// property-test circuits: two small Table-1 benchmarks plus randomized
// generated netlists.
func regionCircuits(t *testing.T, short bool) map[string]*network.Network {
	t.Helper()
	out := make(map[string]*network.Network)
	add := func(name string, n *network.Network, err error) {
		if err != nil {
			t.Fatal(err)
		}
		place.Place(n, lib(), place.Options{Seed: 1, MovesPerCell: 6})
		sizing.SeedForLoad(n, lib(), 0)
		out[name] = n
	}
	n, err := gen.Generate("c432")
	add("c432", n, err)
	if !short {
		n, err = gen.Generate("alu2")
		add("alu2", n, err)
		for _, seed := range []int64{21, 22} {
			rn := gen.FromProfile(parallelProfile(seed))
			add(rn.Name(), rn, nil)
		}
	}
	return out
}

func TestOptimizeRegionedEquivalentAndWithin1Pct(t *testing.T) {
	for name, base := range regionCircuits(t, testing.Short()) {
		for _, strat := range []Strategy{Gsg, GsgGS} {
			seq, _ := base.Clone()
			reg, _ := base.Clone()
			full := Optimize(context.Background(), seq, lib(), strat, Options{MaxIters: 3, Workers: 1})
			regioned := OptimizeRounds(context.Background(), reg, lib(), strat, Options{MaxIters: 3})

			if ce, err := sim.EquivalentRandom(base, reg, 8, 7); err != nil {
				t.Fatalf("%s/%v: %v", name, strat, err)
			} else if ce != nil {
				t.Fatalf("%s/%v: regioned run changed function: %v", name, strat, ce)
			}
			if regioned.FinalDelay > regioned.InitialDelay+1e-9 {
				t.Fatalf("%s/%v: regioned run worsened delay: %+v", name, strat, regioned)
			}
			if regioned.FinalDelay > full.FinalDelay*1.01+1e-9 {
				t.Fatalf("%s/%v: regioned delay %.4f more than 1%% above sequential %.4f",
					name, strat, regioned.FinalDelay, full.FinalDelay)
			}
		}
	}
}

func TestOptimizeWindowedEquivalentAndCheaper(t *testing.T) {
	table1 := map[string]bool{"c432": true, "alu2": true}
	for name, base := range regionCircuits(t, testing.Short()) {
		seq, _ := base.Clone()
		win, _ := base.Clone()
		full := Optimize(context.Background(), seq, lib(), GsgGS, Options{MaxIters: 3, Workers: 1})
		windowed := Optimize(context.Background(), win, lib(), GsgGS, Options{MaxIters: 3, Workers: 1, Window: 0.01})

		if ce, err := sim.EquivalentRandom(base, win, 8, 7); err != nil {
			t.Fatalf("%s: %v", name, err)
		} else if ce != nil {
			t.Fatalf("%s: windowed run changed function: %v", name, ce)
		}
		if windowed.FinalDelay > windowed.InitialDelay+1e-9 {
			t.Fatalf("%s: windowed run worsened delay: %+v", name, windowed)
		}
		// On the Table-1 circuits the tightened window must stay within
		// 1 % of the full run. Tiny random glue circuits can wander a bit
		// more either way (the relaxation band matters more when the
		// whole circuit fits inside it); they are still guarded against
		// regressing their own initial delay above.
		if table1[name] && windowed.FinalDelay > full.FinalDelay*1.01+1e-9 {
			t.Fatalf("%s: windowed delay %.4f more than 1%% above full %.4f",
				name, windowed.FinalDelay, full.FinalDelay)
		}
		// Run-level totals are only comparable when the trajectories
		// agree (a windowed run that finds different moves visits
		// different states); the strict subset property is checked
		// engine-level in TestWindowNarrowsCandidateGeneration.
		if table1[name] {
			fullPer, winPer := full.Evals.PerPhase(), windowed.Evals.PerPhase()
			if winPer > fullPer+1e-9 {
				t.Fatalf("%s: windowed evaluated more candidates per phase (%.1f) than full (%.1f)",
					name, winPer, fullPer)
			}
		}
	}
}

// TestWindowNarrowsCandidateGeneration: on the same frozen timing view, a
// tighter window scores a subset of the default candidates — strictly
// fewer sites whenever the default margins reach beyond the window.
func TestWindowNarrowsCandidateGeneration(t *testing.T) {
	base := gen.FromProfile(parallelProfile(51))
	place.Place(base, lib(), place.Options{Seed: 1, MovesPerCell: 6})
	sizing.SeedForLoad(base, lib(), 0)
	tm := sta.Analyze(base, lib(), 0)
	ext := supergate.Extract(base)

	for _, obj := range []sizing.Objective{sizing.MinSlack, sizing.SumSlack} {
		def := NewEngine(1)
		def.Moves(tm, GsgGS, obj, Options{MaxSwapLeaves: 48}, ext)
		win := NewEngine(1)
		win.Moves(tm, GsgGS, obj, Options{MaxSwapLeaves: 48, Window: 0.005}, ext)
		d, w := def.Stats(), win.Stats()
		if w.SwapSites > d.SwapSites || w.ResizeSites > d.ResizeSites {
			t.Fatalf("obj %v: window widened the site set: %+v vs %+v", obj, w, d)
		}
		if w.Candidates() > d.Candidates() {
			t.Fatalf("obj %v: window scored more candidates: %d vs %d",
				obj, w.Candidates(), d.Candidates())
		}
	}
}

// TestOptimizeRegionedDeterministic: the rounds loop gives identical
// results and netlists at every scoring-worker count, as Optimize does.
func TestOptimizeRegionedDeterministic(t *testing.T) {
	base := gen.FromProfile(parallelProfile(31))
	place.Place(base, lib(), place.Options{Seed: 2, MovesPerCell: 6})
	sizing.SeedForLoad(base, lib(), 0)
	a, _ := base.Clone()
	b, _ := base.Clone()
	ra := OptimizeRounds(context.Background(), a, lib(), GsgGS, Options{MaxIters: 2, Workers: 1})
	rb := OptimizeRounds(context.Background(), b, lib(), GsgGS, Options{MaxIters: 2, Workers: 4})
	if ra.Swaps+ra.Resizes == 0 || ra.Evals == (EvalStats{}) {
		t.Fatalf("vacuous run: %+v", ra)
	}
	if ra != rb {
		t.Fatalf("results differ:\n%+v\n%+v", ra, rb)
	}
	if sa, sb := netSignature(a), netSignature(b); sa != sb {
		t.Fatalf("final networks differ:\n--- a ---\n%s--- b ---\n%s", sa, sb)
	}
}

// TestOptimizeRegionedDegradesToSequential: the rounds loop is exactly a
// sequence of whole-network Optimize runs under the first analysis's
// clock, with a sweep between them, stopping at the first round that
// commits nothing or does not improve the lateness.
func TestOptimizeRegionedDegradesToSequential(t *testing.T) {
	base := gen.FromProfile(parallelProfile(33))
	place.Place(base, lib(), place.Options{Seed: 2, MovesPerCell: 5})
	sizing.SeedForLoad(base, lib(), 0)
	a, _ := base.Clone()
	b, _ := base.Clone()
	o := Options{MaxIters: 2, Workers: 1, Window: 0.005}
	ra := OptimizeRounds(context.Background(), a, lib(), GsgGS, o)

	tm := sta.Analyze(b, lib(), 0)
	o.Clock, o.MaxSwapLeaves = tm.Clock, 48
	best := tm.Lateness
	swaps, resizes, iters := 0, 0, 0
	for iters < 3 {
		iters++
		r := Optimize(context.Background(), b, lib(), GsgGS, o)
		swaps += r.Swaps
		resizes += r.Resizes
		if r.Swaps+r.Resizes == 0 {
			break
		}
		b.Sweep()
		tm = sta.Analyze(b, lib(), o.Clock)
		if tm.Lateness >= best-eps {
			break
		}
		best = tm.Lateness
	}
	if ra.Swaps != swaps || ra.Resizes != resizes || ra.Iterations != iters || ra.FinalDelay != tm.CriticalDelay {
		t.Fatalf("rounds %+v, want %d swaps, %d resizes, %d rounds, delay %v",
			ra, swaps, resizes, iters, tm.CriticalDelay)
	}
	if sa, sb := netSignature(a), netSignature(b); sa != sb {
		t.Fatal("rounds loop produced a different netlist than sequential Optimize runs")
	}
}

// TestRegionSchedulerUnderRace gives `go test -race` the rounds loop
// behind WithRegions with a shared multi-worker scoring engine reused
// across rounds; kept small so the race job stays fast.
func TestRegionSchedulerUnderRace(t *testing.T) {
	base := gen.FromProfile(parallelProfile(44))
	place.Place(base, lib(), place.Options{Seed: 1, MovesPerCell: 5})
	sizing.SeedForLoad(base, lib(), 0)
	orig, _ := base.Clone()
	res := OptimizeRounds(context.Background(), base, lib(), GsgGS, Options{MaxIters: 2, Workers: 4})
	if res.FinalDelay > res.InitialDelay+1e-9 {
		t.Fatalf("rounds optimize worsened delay: %+v", res)
	}
	if ce, err := sim.EquivalentRandom(orig, base, 4, 5); err != nil || ce != nil {
		t.Fatalf("function changed: %v %v", ce, err)
	}
}
