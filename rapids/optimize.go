package rapids

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/opt"
	"repro/internal/sim"
)

// ErrNotPlaced is returned by Optimize when the circuit has not been
// placed: the optimizers score moves against placed-interconnect timing,
// so Place must run first.
var ErrNotPlaced = errors.New("rapids: circuit is not placed; call Place first")

// verifySeed seeds the post-optimization random equivalence check; a
// fixed seed keeps whole-flow runs reproducible.
const verifySeed = 12345

// Verification is the outcome of the post-optimization equivalence
// check.
type Verification int

const (
	// VerifyDisabled: WithVerification(<= 0) turned the check off.
	VerifyDisabled Verification = iota
	// VerifyPassed: no counterexample over the configured rounds.
	VerifyPassed
	// VerifyFailed: the optimized network changed function (Optimize
	// also returns an error describing the counterexample).
	VerifyFailed
	// VerifySkipped: the run was interrupted before the check could
	// run; the best-so-far network is returned unverified.
	VerifySkipped
)

func (v Verification) String() string {
	switch v {
	case VerifyDisabled:
		return "disabled"
	case VerifyPassed:
		return "passed"
	case VerifyFailed:
		return "FAILED"
	case VerifySkipped:
		return "skipped"
	}
	return fmt.Sprintf("Verification(%d)", int(v))
}

// TimerStats counts the timing work of a run: full ground-truth
// analyses versus incremental dirty-region updates.
type TimerStats struct {
	FullAnalyses       int
	IncrementalUpdates int
	AvgDirty           float64
	MaxDirty           int
	ArrivalRecomputes  int
	RequiredRecomputes int
}

// ExtractorStats counts the supergate-extraction work of a run: full
// extractions versus incremental flushes of the mutation-tracked cache.
type ExtractorStats struct {
	FullExtractions    int
	IncrementalFlushes int
	Reextracted        int
}

// EvalStats counts the candidate-generation work of the scoring engine.
type EvalStats struct {
	// Phases counts scored optimizer phases; SwapSites/ResizeSites the
	// candidate sites, SwapEvals/ResizeEvals the individual candidates
	// scored, and Moves the positive-gain moves handed to the apply
	// loop.
	Phases      int
	SwapSites   int
	ResizeSites int
	SwapEvals   int
	ResizeEvals int
	Moves       int
}

// Candidates returns the total number of individual candidates scored.
func (s EvalStats) Candidates() int { return s.SwapEvals + s.ResizeEvals }

// Result is the structured outcome of one Optimize run.
type Result struct {
	Strategy Strategy
	// Delay and area, before and after (Table 1's quantities).
	InitialDelayNS float64
	FinalDelayNS   float64
	InitialAreaUM2 float64
	FinalAreaUM2   float64
	// Committed work.
	Swaps      int
	Resizes    int
	Iterations int
	// Supergate extraction statistics of the initial network: coverage
	// by non-trivial supergates in percent, the largest supergate's
	// input count (Table 1's L), and the redundancies found.
	CoveragePct        float64
	MaxSupergateInputs int
	Redundancies       int
	// Engine-room statistics.
	Timer     TimerStats
	Extractor ExtractorStats
	Evals     EvalStats
	// Verification outcome and the rounds actually run.
	Verification Verification
	VerifyRounds int
	// Interrupted reports that the context was cancelled before the
	// optimizer converged; the circuit holds the best-so-far network,
	// still functionally equivalent to (and never slower than) the
	// input.
	Interrupted bool
	// Elapsed is the wall-clock time of the optimization proper
	// (verification excluded).
	Elapsed time.Duration
}

// ImprovementPct returns the delay improvement in percent (positive is
// better), as Table 1 reports it.
func (r *Result) ImprovementPct() float64 {
	if r.InitialDelayNS == 0 {
		return 0
	}
	return 100 * (r.InitialDelayNS - r.FinalDelayNS) / r.InitialDelayNS
}

// AreaDeltaPct returns the area change in percent (negative = smaller).
func (r *Result) AreaDeltaPct() float64 {
	if r.InitialAreaUM2 == 0 {
		return 0
	}
	return 100 * (r.FinalAreaUM2 - r.InitialAreaUM2) / r.InitialAreaUM2
}

// Optimize runs the configured strategy on the placed circuit in place:
// cell positions are never modified, and the only new cells are
// inverters from inverting swaps. It returns a structured Result; the
// optimized network stays in c.
//
// The context is honored at phase and round boundaries (anytime
// semantics): when it is cancelled or its deadline expires, the run
// stops after the in-flight phase and returns the best-so-far network —
// functionally equivalent to the input and never slower — with
// Result.Interrupted set and an error wrapping ctx.Err(). No goroutine
// of the scoring pool outlives the call. A nil ctx never cancels.
//
// With verification enabled (the default; see WithVerification), the
// optimized network is checked against a pre-optimization snapshot by
// random simulation, and a mismatch returns an error alongside the
// Result. Interrupted runs skip verification (VerifySkipped).
func (c *Circuit) Optimize(ctx context.Context, opts ...Option) (*Result, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if !c.placed {
		return nil, ErrNotPlaced
	}

	// WithDeadline rides the existing context-cancellation path: the
	// run under a deadline is indistinguishable from one whose caller
	// cancelled at that instant.
	if cfg.deadline > 0 {
		base := ctx
		if base == nil {
			base = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(base, cfg.deadline)
		defer cancel()
	}

	// Each event's Elapsed is the time since the previous one — the
	// duration of the work it reports. Events are emitted sequentially
	// from the optimizer's own goroutine, so a plain variable suffices.
	prevEvent := time.Now()
	emit := func(ev Event) {
		if cfg.progress != nil {
			now := time.Now()
			ev.Elapsed = now.Sub(prevEvent)
			prevEvent = now
			ev.Circuit = c.net.Name()
			ev.Strategy = cfg.strategy
			cfg.progress(ev)
		}
	}

	var ref *sim.Reference
	if cfg.verifyRounds > 0 {
		ref = sim.Capture(c.net, cfg.verifyRounds, verifySeed)
	}

	oo := opt.Options{
		Clock: cfg.clock, MaxIters: cfg.iters,
		Workers: cfg.workers, Window: cfg.window,
	}
	if cfg.progress != nil {
		oo.Progress = func(pr opt.PhaseReport) {
			// The optimizer's "start" report (right after its seeding
			// analysis) becomes EventStart — no extra analysis needed
			// just to open the stream.
			if pr.Phase == "start" {
				emit(Event{Kind: EventStart, DelayNS: pr.Delay})
				return
			}
			emit(Event{
				Kind: EventPhase, Iteration: pr.Iteration, Phase: pr.Phase,
				Applied: pr.Applied, DelayNS: pr.Delay,
				Swaps: pr.Swaps, Resizes: pr.Resizes,
			})
		}
	}

	start := time.Now()
	var ores opt.Result
	if cfg.regions > 1 {
		ores = opt.OptimizeRounds(ctx, c.net, c.lib, opt.Strategy(cfg.strategy), oo)
	} else {
		ores = opt.Optimize(ctx, c.net, c.lib, opt.Strategy(cfg.strategy), oo)
	}
	res := &Result{
		Strategy:           cfg.strategy,
		InitialDelayNS:     ores.InitialDelay,
		FinalDelayNS:       ores.FinalDelay,
		InitialAreaUM2:     ores.InitialArea,
		FinalAreaUM2:       ores.FinalArea,
		Swaps:              ores.Swaps,
		Resizes:            ores.Resizes,
		Iterations:         ores.Iterations,
		CoveragePct:        100 * ores.Coverage,
		MaxSupergateInputs: ores.MaxLeaves,
		Redundancies:       ores.Redundancies,
		Timer: TimerStats{
			FullAnalyses:       ores.Timer.FullAnalyses,
			IncrementalUpdates: ores.Timer.IncrementalUpdates,
			AvgDirty:           ores.Timer.AvgDirty(),
			MaxDirty:           ores.Timer.MaxDirty,
			ArrivalRecomputes:  ores.Timer.ArrivalRecomputes,
			RequiredRecomputes: ores.Timer.RequiredRecomputes,
		},
		Extractor: ExtractorStats{
			FullExtractions:    ores.Extractor.FullExtractions,
			IncrementalFlushes: ores.Extractor.IncrementalFlushes,
			Reextracted:        ores.Extractor.Reextracted,
		},
		Evals: EvalStats{
			Phases:      ores.Evals.Phases,
			SwapSites:   ores.Evals.SwapSites,
			ResizeSites: ores.Evals.ResizeSites,
			SwapEvals:   ores.Evals.SwapEvals,
			ResizeEvals: ores.Evals.ResizeEvals,
			Moves:       ores.Evals.Moves,
		},
		Interrupted: ores.Interrupted,
		Elapsed:     time.Since(start),
	}

	var verr error
	switch {
	case cfg.verifyRounds <= 0:
		res.Verification = VerifyDisabled
	case res.Interrupted:
		res.Verification = VerifySkipped
	default:
		res.VerifyRounds = cfg.verifyRounds
		ce, err := ref.Check(c.net)
		switch {
		case err != nil:
			res.Verification = VerifyFailed
			verr = fmt.Errorf("rapids: verification of %s/%v: %w", c.net.Name(), cfg.strategy, err)
		case ce != nil:
			res.Verification = VerifyFailed
			verr = fmt.Errorf("rapids: %s/%v changed function: %v", c.net.Name(), cfg.strategy, ce)
		default:
			res.Verification = VerifyPassed
		}
		emit(Event{Kind: EventVerify, Verification: res.Verification, DelayNS: res.FinalDelayNS})
	}

	emit(Event{Kind: EventDone, DelayNS: res.FinalDelayNS, Swaps: res.Swaps,
		Resizes: res.Resizes, Verification: res.Verification, Result: res})

	if verr != nil {
		return res, verr
	}
	if res.Interrupted && ctx != nil && ctx.Err() != nil {
		return res, fmt.Errorf("rapids: optimization interrupted: %w", ctx.Err())
	}
	return res, nil
}
