// Package opt implements the paper's post-placement performance optimizer
// (§5, §6): supergate-based rewiring formulated as a sizing problem. Each
// set of leaf swaps of a supergate acts as an alternative "library
// implementation" of that supergate; finding the best implementation per
// site and applying the best sequence is exactly the Coudert-style loop
// that gate sizing uses (the resize move itself lives in package sizing).
//
// Three strategies reproduce the experimental comparison of §6:
//
//   - Gsg: supergate-based rewiring only. The placement is untouched;
//     only wires move and inverters may be added or deleted.
//   - GS: traditional gate sizing only.
//   - GsgGS: rewiring for gates covered by non-trivial supergates, sizing
//     for the rest — the paper's minimum-perturbation combination.
//
// Every accepted batch of moves is guarded by a network-wide timing
// check, so the critical delay never regresses; local evaluations only
// *rank* candidates. The guard itself is cheap: an incremental timer
// (sta.Incremental) absorbs each batch by re-propagating timing through
// the mutated region only. The guard reads primary-output lateness, which
// depends on arrival times alone, so it brings only arrivals current
// (UpdateArrivals); the backward required-time sweep of an accepted batch
// runs with the next phase's Update, which scoring needs, and a rejected
// batch never pays for one. From-scratch ground-truth analyses run twice
// per optimization — once to seed the timer and once at the end for the
// reported result — plus the timer's own threshold fallbacks when a batch
// dirties most of a (small) network.
//
// A batch that fails the guard costs nothing once undone. Its moves are
// undone in reverse order, which restores the network exactly, fanout
// order included (rewire.Apply); the timer returns to the checkpoint it
// took before the batch and the supergate cache drops the batch's
// touches, so nothing is re-timed or re-extracted. The single-move retry
// walks the phase's own ranking against the restored timing, and a later
// phase on the restored network takes every site it already scored from
// the engine's buffers (engine.go), since a site is scored under both
// objectives at once.
package opt

import (
	"context"
	"fmt"

	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/rewire"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/supergate"
	"repro/internal/techmap"
)

const eps = 1e-9

// Strategy selects which optimizer §6 compares.
type Strategy int

const (
	// Gsg is supergate-based rewiring only.
	Gsg Strategy = iota
	// GS is traditional gate sizing only.
	GS
	// GsgGS rewires gates covered by non-trivial supergates and sizes
	// the rest.
	GsgGS
)

func (s Strategy) String() string {
	switch s {
	case Gsg:
		return "gsg"
	case GS:
		return "GS"
	case GsgGS:
		return "gsg+GS"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Options controls an optimization run.
type Options struct {
	// Clock is the PO required time; <= 0 freezes the initial critical
	// delay, turning slack maximization into delay minimization.
	Clock float64
	// MaxIters bounds the outer phase-1/phase-2 iterations (default 6).
	MaxIters int
	// MaxSwapLeaves caps the supergate size whose swap pairs are
	// enumerated exhaustively (default 48, covering Table 1's largest).
	MaxSwapLeaves int
	// DisableRelaxation turns off the sum-slack phase, leaving only the
	// min-slack neighborhood search. Used by the ablation benchmarks to
	// isolate the contribution of Coudert's relaxation.
	DisableRelaxation bool
	// Workers sets the parallelism of candidate scoring: 0 picks
	// GOMAXPROCS, 1 forces sequential scoring. Results are bit-identical
	// at every setting — scoring reads the frozen timing view only, and
	// the merged move list is ordered by (gain, dense gate ID).
	Workers int
	// Window, when > 0, narrows the criticality window of candidate
	// generation: only sites within Window×Clock of the worst slack are
	// scored in the min-slack phase (5×Window×Clock in the relaxation
	// phase), replacing the default 2 % / 10 % margins, and the per-phase
	// site count is bounded to the max(256, 10·Window·N) most critical
	// sites — the bound that holds even on circuits whose critical core
	// is too large for any slack margin to prune. Tighter windows
	// evaluate far fewer candidates on large circuits at a small cost in
	// final delay; every accepted batch is still guarded globally.
	Window float64
	// Bounds pins boundary timing conditions (arrivals at selected
	// primary inputs, required times and exterior loads at selected
	// primary outputs) for every analysis of the run. ECO sessions set
	// it from their pin edits; leave nil for unpinned networks.
	Bounds *sta.Bounds
	// Progress, when non-nil, receives one "start" PhaseReport after
	// the seeding analysis and one PhaseReport after every completed
	// optimizer phase (an objective pass of Optimize, or a whole round
	// of OptimizeRounds). It is called synchronously on the
	// optimizer's goroutine and must not mutate the network.
	Progress func(PhaseReport)

	// engine, when non-nil, is a caller-owned scoring engine to use
	// instead of building (and releasing) a fresh one. OptimizeRounds
	// hands every round one persistent engine so its scratch arenas
	// survive across rounds. The run consumes the engine's counters via
	// TakeStats.
	engine *Engine
	// timer and cache, when non-nil, are a caller-owned incremental timer
	// and supergate cache over the run's network, fully timed, to use
	// instead of building fresh ones. OptimizeRounds hands every round the
	// same pair. Such a run leaves both open, skips the final from-scratch
	// analysis (the caller owns it), reports FinalDelay from the timer and
	// Timer/Extractor as the pair's running totals.
	timer *sta.Incremental
	cache *supergate.Cache
}

// PhaseReport is one typed progress milestone of an optimization run.
type PhaseReport struct {
	// Iteration is the 1-based outer iteration (round, for
	// OptimizeRounds); 0 for the "start" report.
	Iteration int
	// Phase names the completed phase: "start" (the seeding analysis),
	// "min-slack", "sum-slack", or "round".
	Phase string
	// Applied is the number of moves the phase committed (post-guard).
	Applied int
	// Retried reports that the phase's batch regressed the global guard
	// and was rolled back; Applied then counts the single-move retry.
	Retried bool
	// Delay and Lateness are the current critical delay and boundary
	// lateness after the phase, per the incremental timer.
	Delay    float64
	Lateness float64
	// Swaps and Resizes are cumulative counts for the run.
	Swaps   int
	Resizes int
}

// phaseName renders the sizing objective of a phase for PhaseReport.
func phaseName(obj sizing.Objective) string {
	if obj == sizing.SumSlack {
		return "sum-slack"
	}
	return "min-slack"
}

// cancelled reports whether the run's context has been cancelled; a nil
// context never is.
func cancelled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// Result reports one optimizer run with the Table 1 quantities.
type Result struct {
	Strategy     Strategy
	InitialDelay float64 // ns, after placement
	FinalDelay   float64 // ns
	InitialArea  float64 // µm²
	FinalArea    float64 // µm²
	Swaps        int
	Resizes      int
	Iterations   int

	// Extraction statistics of the *initial* network (identical across
	// strategies on the same input): Table 1's cov %, L, and #red.
	Coverage     float64
	MaxLeaves    int
	Redundancies int

	// Timer counts the timing work: full ground-truth analyses versus
	// incremental dirty-region updates (the final ground-truth Analyze is
	// not included; it runs after the timer detaches).
	Timer sta.IncStats
	// Extractor counts the supergate-extraction work: full extractions
	// versus incremental flushes of the mutation-tracked cache.
	Extractor supergate.CacheStats
	// Evals counts the candidate-generation work of the scoring engine;
	// the criticality-window ablation (BENCH_PR3) compares these across
	// window settings.
	Evals EvalStats

	// Interrupted reports that the run's context was cancelled (or its
	// deadline expired) before the optimizer converged. The network is
	// still the best-so-far valid result: cancellation is only observed
	// at phase boundaries, where every committed batch has already
	// passed the global timing guard.
	Interrupted bool
}

// ImprovementPct returns the delay improvement in percent (positive is
// better), as Table 1 reports.
func (r Result) ImprovementPct() float64 {
	if r.InitialDelay == 0 {
		return 0
	}
	return 100 * (r.InitialDelay - r.FinalDelay) / r.InitialDelay
}

// AreaDeltaPct returns the area change in percent (negative = smaller).
func (r Result) AreaDeltaPct() float64 {
	if r.InitialArea == 0 {
		return 0
	}
	return 100 * (r.FinalArea - r.InitialArea) / r.InitialArea
}

// Optimize runs the selected strategy on the mapped, placed network in
// place. Placement coordinates of existing cells are never modified; the
// only new cells are inverters from inverting swaps, placed at the pin
// they feed.
//
// The context is checked at phase boundaries: once it is cancelled or
// its deadline expires, the run stops after the in-flight phase, marks
// the result Interrupted, and returns with the network in its best
// committed state so far (anytime semantics — every accepted batch has
// already passed the global timing guard, so the network is always a
// valid, function-preserving improvement of the input). A nil context
// never cancels.
func Optimize(ctx context.Context, n *network.Network, lib *library.Library, strat Strategy, o Options) Result {
	if o.MaxIters <= 0 {
		o.MaxIters = 6
	}
	if o.MaxSwapLeaves <= 0 {
		o.MaxSwapLeaves = 48
	}
	inc := o.timer
	if inc == nil {
		inc = sta.NewIncrementalBounded(n, lib, o.Clock, o.Bounds)
	}
	tm := inc.Timing()
	clock := tm.Clock

	// The extraction cache subscribes to the same mutation-event layer as
	// the incremental timer: each phase's supergate decomposition is the
	// previous one with only the supergates whose cones a batch touched
	// re-extracted, instead of a from-scratch O(network) Extract.
	cache := o.cache
	if cache == nil {
		cache = supergate.NewCache(n)
		defer cache.Close()
	}
	eng := o.engine
	if eng == nil {
		eng = NewEngine(o.Workers)
		defer eng.Release()
	}

	ext := cache.Extraction()
	res := Result{
		Strategy:     strat,
		InitialDelay: tm.CriticalDelay,
		FinalDelay:   tm.CriticalDelay,
		InitialArea:  techmap.Area(n, lib),
		Coverage:     ext.Coverage(),
		MaxLeaves:    ext.MaxLeaves(),
		Redundancies: len(ext.Redundancies),
	}

	objectives := []sizing.Objective{sizing.MinSlack, sizing.SumSlack}
	if o.DisableRelaxation {
		objectives = objectives[:1]
	}
	// The guard metric is the boundary lateness, not the raw critical
	// delay: for whole networks the two differ by the constant clock, so
	// comparisons are identical, while for bounded subnetworks lateness
	// scores each output against its own pinned required time.
	report := func(iter int, obj sizing.Objective, applied int, retried bool, tm *sta.Timing) {
		if o.Progress != nil {
			o.Progress(PhaseReport{
				Iteration: iter + 1, Phase: phaseName(obj), Applied: applied, Retried: retried,
				Delay: tm.CriticalDelay, Lateness: tm.Lateness,
				Swaps: res.Swaps, Resizes: res.Resizes,
			})
		}
	}

	if o.Progress != nil {
		o.Progress(PhaseReport{
			Phase: "start", Delay: tm.CriticalDelay, Lateness: tm.Lateness,
		})
	}

	bestLateness := tm.Lateness
	for iter := 0; iter < o.MaxIters; iter++ {
		improved := false
		ranPhase := false
		for _, obj := range objectives {
			if cancelled(ctx) {
				res.Interrupted = true
				break
			}
			ranPhase = true
			// The phase starts fully timed: this Update also runs the
			// backward sweep the last accepted batch's guard deferred.
			tm = inc.Update()
			before := tm.Lateness
			// Snapshot the move counters: a rolled-back batch must not
			// count toward the Result's committed work.
			swaps0, resizes0 := res.Swaps, res.Resizes
			// Flush the cache for every strategy, so that a rollback
			// below drops only this phase's touches.
			ext := cache.Extraction()
			if strat == GS {
				ext = nil
			}
			ranked := eng.Moves(tm, strat, obj, o, ext)
			inc.Checkpoint()
			// rollback returns the network, the timer and the cache to
			// the checkpoint: the undos run in reverse order, so every
			// fanout list gets its order back (rewire.Apply), and the
			// timer and the cache then describe the restored network as
			// they did before the batch, with nothing to re-time or
			// re-extract. The engine's scores, taken at the checkpoint's
			// timing version, are valid again too.
			rollback := func(undos []Undo) *sta.Timing {
				undoAll(n, undos)
				cache.Rollback()
				res.Swaps, res.Resizes = swaps0, resizes0
				return inc.Rollback()
			}
			applied, undos := applyMoves(n, tm, ranked, obj, &res, 0, eng)
			if applied == 0 {
				report(iter, obj, 0, false, tm)
				continue
			}
			// The guard reads lateness only, so it brings arrivals
			// current and leaves the backward sweep to the next phase's
			// Update; a rollback discards it unrun.
			tm = inc.UpdateArrivals()
			after := tm.Lateness
			retried := after > before+eps
			if retried {
				// The batch regressed globally (a locally-scored move
				// misled); roll it back and retry with only the single
				// best move, which is almost always sound. The rollback
				// restores the scored network, so the retry walks the
				// phase's own ranking, revalidating each move against
				// the restored timing, instead of scoring it again.
				tm = rollback(undos)
				applied, undos = applyMoves(n, tm, ranked, obj, &res, 1, eng)
				if applied == 0 {
					report(iter, obj, 0, true, tm)
					continue
				}
				tm = inc.UpdateArrivals()
				after = tm.Lateness
				if after > before+eps {
					tm = rollback(undos)
					report(iter, obj, 0, true, tm)
					continue
				}
			}
			// The batch is accepted; gates orphaned by inverter
			// collapses are now safe to sweep (no pending undos).
			n.Sweep()
			report(iter, obj, applied, retried, tm)
			if after < bestLateness-eps {
				bestLateness = after
				improved = true
			}
		}
		if res.Interrupted {
			// A partial iteration still counts when any of its phases
			// ran: its committed moves are part of the Result.
			if ranPhase {
				res.Iterations = iter + 1
			}
			break
		}
		res.Iterations = iter + 1
		if !improved {
			break
		}
	}
	// Note: no blanket inverter-pair collapse here. Pre-existing INV
	// chains often serve as buffers, and stripping them regresses delay;
	// inverting swaps already collapse onto inverter drivers instead of
	// stacking (see rewire.Apply), so nothing accretes.
	res.Timer = inc.Stats()
	res.Extractor = cache.Stats()
	if o.timer != nil {
		// The caller's timer goes on; the guard's view of the final
		// network is current after its orphans' sweep is absorbed.
		res.FinalDelay = inc.UpdateArrivals().CriticalDelay
	} else {
		res.FinalDelay = releaseForFinal(inc, n, lib, clock, o.Bounds)
	}
	res.Evals = eng.TakeStats()
	res.FinalArea = techmap.Area(n, lib)
	return res
}

// releaseForFinal releases a run's timer, which hands its checkpoint's
// Timing back to the pool the final analysis draws from, and returns the
// critical delay of that from-scratch ground-truth analysis of n.
func releaseForFinal(inc *sta.Incremental, n *network.Network, lib *library.Library, clock float64, b *sta.Bounds) float64 {
	inc.Release()
	final := sta.AnalyzeReleased(n, lib, clock, b)
	defer sta.ReleaseTiming(final)
	return final.CriticalDelay
}

// applyMoves applies the best sequence of a phase's ranked moves (sorted
// by gain with dense-ID tie-break), revalidating each against the current,
// partially mutated state, with an optional cap on applied moves (0 =
// unlimited). It returns the number of applied moves and their undo
// functions in application order.
func applyMoves(n *network.Network, tm *sta.Timing, moves []Move, obj sizing.Objective, res *Result, maxApply int, eng *Engine) (int, []Undo) {
	applied := 0
	var undos []Undo
	ws := eng.state[0]
	// One batch window per application round: the extraction cache sees
	// the round's mutations as a single coalesced GateBatch at EndBatch
	// instead of per-move callbacks; the next Extraction call (top of the
	// following phase) is the flush point either way.
	n.BeginBatch()
	defer n.EndBatch()
	for _, m := range moves {
		if maxApply > 0 && applied >= maxApply {
			break
		}
		if m.IsSwap {
			if gain := EvalSwapScratch(tm, m.Swap, ws.sc)[obj]; gain <= eps {
				continue
			}
			undos = append(undos, applySwap(n, m.Swap))
			res.Swaps++
		} else {
			if gain := ws.rs.EvalResize(tm, m.Gate, m.Size, obj); gain <= eps {
				continue
			}
			g, old := m.Gate, m.Gate.SizeIdx
			n.SetSize(g, m.Size)
			undos = append(undos, func() { n.SetSize(g, old) })
			res.Resizes++
		}
		applied++
	}
	return applied, undos
}

// undoAll reverts applied moves in reverse order as one batch.
func undoAll(n *network.Network, undos []Undo) {
	n.BeginBatch()
	for i := len(undos) - 1; i >= 0; i-- {
		undos[i]()
	}
	n.EndBatch()
}

// Undo reverts one applied move.
type Undo func()

// supergateCritical reports whether any covered gate or leaf driver of sg
// is critical (crit is the phase's predicate by gate ID).
func supergateCritical(sg *supergate.Supergate, crit []bool) bool {
	for _, g := range sg.Gates {
		if crit[g.ID()] {
			return true
		}
	}
	for _, l := range sg.Leaves {
		if crit[l.Driver.ID()] {
			return true
		}
	}
	return false
}

// neighborhoodCritical reports whether a resize of g can touch the
// critical region: g itself, its fanin drivers, or any of their sinks.
func neighborhoodCritical(g *network.Gate, crit []bool) bool {
	if crit[g.ID()] {
		return true
	}
	for _, d := range g.Fanins() {
		if crit[d.ID()] {
			return true
		}
		for _, s := range d.Fanouts() {
			if crit[s.ID()] {
				return true
			}
		}
	}
	return false
}

// sizableFilter returns which gates the strategy may resize.
func sizableFilter(strat Strategy, ext *supergate.Extraction) func(*network.Gate) bool {
	if strat == GS || ext == nil {
		return func(*network.Gate) bool { return true }
	}
	// gsg+GS: only gates covered by trivial supergates are sized; gates
	// inside non-trivial supergates belong to the rewiring engine.
	return func(g *network.Gate) bool {
		sg := ext.Of(g)
		return sg == nil || sg.Trivial()
	}
}

// applySwap commits a swap and places any inverter it created at the pin
// gate it feeds, keeping every pre-existing cell exactly where it was.
func applySwap(n *network.Network, s rewire.Swap) Undo {
	undo := rewire.Apply(n, s)
	for _, idx := range []int{s.I, s.J} {
		pin := s.SG.Leaves[idx].Pin
		d := pin.Driver()
		if d.Type == logic.Inv && !d.Placed {
			d.X, d.Y = pin.Gate.X, pin.Gate.Y
			d.Placed = pin.Gate.Placed
		}
	}
	return Undo(undo)
}
