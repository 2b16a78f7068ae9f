// Optimization in rounds: the paper's optimizers run to a budget on the
// whole network, the orphaned gates are swept, and the timer's lateness
// after the sweep sets the next round's baseline. This is what the
// facade's WithRegions(n > 1) runs; it partitions nothing, because a
// timing-region partition held one region on every measured input
// (DESIGN.md §3b). The rounds are one run: each runs Optimize's phase
// loop on the same timer, supergate cache and scoring engine, so each
// starts from the state the last one left, timed and extracted exactly
// as a fresh analysis and a fresh extraction would
// (TestOptimizeRegionedDegradesToSequential checks this). A windowed run
// gets a fresh per-round iteration budget, so rounds can reach moves a
// single Optimize call has stopped looking for.
package opt

import (
	"context"

	"repro/internal/library"
	"repro/internal/network"
)

// rounds bounds the OptimizeRounds loop; a round that does not improve
// the lateness ends the run earlier.
const rounds = 3

// OptimizeRounds runs the selected strategy for up to three rounds on
// the whole network. Each round is a run of Optimize's phase loop
// (MaxIters iterations, default 6, per round, and 1 when o.Window is
// unset), followed by a sweep of orphaned gates and an Update of the
// timer; the run stops after a round that commits nothing or does not
// improve the lateness. One from-scratch analysis at the end sets
// FinalDelay, as in Optimize. The final network never has a worse
// critical delay than the initial one, and its logic function is
// preserved (the guarantee Optimize gives). Result.Timer and
// Result.Extractor count the whole run's work.
//
// o.Progress receives one "start" report and one "round" report per
// round. The context is checked at round boundaries and at every phase
// start; a cancelled run returns the best-so-far network marked
// Interrupted.
func OptimizeRounds(ctx context.Context, n *network.Network, lib *library.Library, strat Strategy, o Options) Result {
	r := newRun(n, lib, strat, o)
	iters := r.o.MaxIters
	if o.Window <= 0 {
		// Unwindowed, the rounds are the outer loop: letting every round
		// re-converge privately only re-scores the same full-cost phases.
		iters = 1
	}
	res := &r.res
	tm := r.inc.Timing()
	lateness, delay := tm.Lateness, tm.CriticalDelay
	for round := 0; round < rounds; round++ {
		// The first round always runs; the phase loop checks the context
		// itself.
		if round > 0 && cancelled(ctx) {
			break
		}
		before, committed := lateness, res.Swaps+res.Resizes
		if ran, _ := r.phases(ctx, iters, nil); ran > 0 {
			res.Iterations = round + 1
		}
		applied := res.Swaps + res.Resizes - committed
		if applied > 0 {
			// Sweep the orphans first so that one Update serves as both
			// the next round's starting timing and this round's
			// lateness (the phases' own guard has already enforced it).
			n.Sweep()
			tm = r.inc.Update()
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
	res.Interrupted = cancelled(ctx)
	return r.finish()
}
