// Optimization in rounds: the paper's optimizers run to a budget on the
// whole network, the orphaned gates are swept, and the timer's lateness
// after the sweep sets the next round's baseline. This is what the
// facade's WithRegions(n > 1) runs; it partitions nothing, because a
// timing-region partition held one region on every measured input
// (DESIGN.md §3b). The rounds share one incremental timer, one supergate
// cache and one scoring engine: each round starts from the state the
// last one left, timed and extracted exactly as a fresh analysis and a
// fresh extraction would (TestOptimizeRegionedDegradesToSequential checks
// this). A windowed run gets a fresh per-round iteration budget, so
// rounds can reach moves a single Optimize call has stopped looking for.
package opt

import (
	"context"
	"runtime"

	"repro/internal/library"
	"repro/internal/network"
	"repro/internal/sta"
	"repro/internal/supergate"
	"repro/internal/techmap"
)

// rounds bounds the OptimizeRounds loop; a round that does not improve
// the lateness ends the run earlier.
const rounds = 3

// OptimizeRounds runs the selected strategy for up to three rounds on
// the whole network. Each round is one Optimize run (MaxIters defaults
// to 6 per round, and to 1 when o.Window is unset), followed by a sweep
// of orphaned gates and an Update of the shared timer; the run stops
// after a round that commits nothing or does not improve the lateness.
// One from-scratch analysis at the end sets FinalDelay, as in Optimize.
// The final network never has a worse critical delay than the initial
// one, and its logic function is preserved (the guarantee Optimize
// gives). Result.Timer and Result.Extractor count the whole run's work.
//
// o.Progress receives one "start" report and one "round" report per
// round. The context is checked at round boundaries and handed to every
// round's Optimize; a cancelled run returns the best-so-far network
// marked Interrupted.
func OptimizeRounds(ctx context.Context, n *network.Network, lib *library.Library, strat Strategy, o Options) Result {
	if o.MaxIters <= 0 {
		o.MaxIters = 6
	}
	if o.MaxSwapLeaves <= 0 {
		o.MaxSwapLeaves = 48
	}

	// One timer and one cache serve every round: the timer's seed is the
	// run's initial analysis, and each round's Optimize picks up the
	// timing and the extraction the last one left.
	inc := sta.NewIncrementalBounded(n, lib, o.Clock, o.Bounds)
	cache := supergate.NewCache(n)
	tm := inc.Timing()
	clock, lateness, delay := tm.Clock, tm.Lateness, tm.CriticalDelay
	res := Result{
		Strategy:     strat,
		InitialDelay: delay,
	}
	if o.Progress != nil {
		o.Progress(PhaseReport{
			Phase: "start", Delay: delay, Lateness: lateness,
		})
	}

	// One scoring engine serves every round too, so its scratch arenas
	// warm up once per run, and the site scores of a state the last round
	// ended on carry over.
	so := o
	if o.Window <= 0 {
		// Unwindowed, the rounds are the outer loop: letting every round
		// re-converge privately only re-scores the same full-cost phases.
		so.MaxIters = 1
	}
	so.Clock = clock
	if so.Workers <= 0 {
		so.Workers = runtime.GOMAXPROCS(0)
	}
	so.engine = NewEngine(so.Workers)
	defer so.engine.Release()
	so.timer, so.cache = inc, cache
	// The loop reports per round instead of per phase.
	so.Progress = nil

	for round := 0; round < rounds; round++ {
		// The first round always runs (Optimize checks the context
		// itself): its Result carries the input network's area and
		// supergate statistics.
		if round > 0 && cancelled(ctx) {
			res.Interrupted = true
			break
		}
		before := lateness
		r := Optimize(ctx, n, lib, strat, so)
		if round == 0 {
			res.InitialArea, res.Coverage = r.InitialArea, r.Coverage
			res.MaxLeaves, res.Redundancies = r.MaxLeaves, r.Redundancies
		}
		res.Evals.Add(r.Evals)
		if r.Iterations > 0 {
			res.Iterations = round + 1
		}
		applied := r.Swaps + r.Resizes
		if applied > 0 {
			res.Swaps += r.Swaps
			res.Resizes += r.Resizes
			// Sweep the orphans first so that one Update serves as both
			// the next round's starting timing and this round's
			// lateness (Optimize's own guard has already enforced it).
			n.Sweep()
			tm = inc.Update()
			lateness, delay = tm.Lateness, tm.CriticalDelay
		}
		if o.Progress != nil {
			o.Progress(PhaseReport{
				Iteration: round + 1, Phase: "round", Applied: applied,
				Delay: delay, Lateness: lateness,
				Swaps: res.Swaps, Resizes: res.Resizes,
			})
		}
		if lateness >= before-eps {
			break
		}
	}
	if cancelled(ctx) {
		res.Interrupted = true
	}
	res.Timer = inc.Stats()
	res.Extractor = cache.Stats()
	cache.Close()
	res.FinalDelay = releaseForFinal(inc, n, lib, clock, o.Bounds)
	res.FinalArea = techmap.Area(n, lib)
	return res
}
