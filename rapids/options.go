package rapids

import (
	"fmt"
	"time"

	"repro/internal/opt"
)

// Strategy selects which of the paper's §6 optimizers Optimize runs.
type Strategy int

const (
	// Gsg is supergate-based rewiring only: the placement is untouched,
	// only wires move, and inverters may be added or deleted.
	Gsg Strategy = Strategy(opt.Gsg)
	// GS is traditional gate sizing only.
	GS Strategy = Strategy(opt.GS)
	// GsgGS rewires gates covered by non-trivial supergates and sizes
	// the rest — the paper's minimum-perturbation combination and the
	// default.
	GsgGS Strategy = Strategy(opt.GsgGS)
)

func (s Strategy) String() string { return opt.Strategy(s).String() }

// ParseStrategy maps the paper's names "gsg", "GS", and "gsg+GS" (as a
// CLI -strategy flag would spell them) to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "gsg":
		return Gsg, nil
	case "GS":
		return GS, nil
	case "gsg+GS":
		return GsgGS, nil
	}
	return GsgGS, fmt.Errorf("rapids: unknown strategy %q (want gsg, GS, or gsg+GS)", s)
}

// DefaultVerifyRounds is the number of 64-pattern random equivalence
// rounds Optimize runs when WithVerification is not given.
const DefaultVerifyRounds = 16

// Option configures Circuit.Optimize.
type Option func(*optConfig)

type optConfig struct {
	clock        float64
	strategy     Strategy
	iters        int
	workers      int
	window       float64
	regions      int
	verifyRounds int
	deadline     time.Duration
	progress     func(Event)
}

func defaultConfig() optConfig {
	return optConfig{strategy: GsgGS, verifyRounds: DefaultVerifyRounds}
}

// WithClock sets the required time at primary outputs in ns. <= 0 (the
// default) freezes the initial critical delay as the target, turning
// slack maximization into pure delay minimization.
func WithClock(ns float64) Option {
	return func(c *optConfig) { c.clock = ns }
}

// WithStrategy selects the optimizer (default GsgGS).
func WithStrategy(s Strategy) Option {
	return func(c *optConfig) { c.strategy = s }
}

// WithIters bounds the outer optimizer iterations (default 6); the run
// also stops as soon as an iteration fails to improve.
func WithIters(n int) Option {
	return func(c *optConfig) { c.iters = n }
}

// WithWorkers sets the move-scoring parallelism: 0 (the default) uses
// GOMAXPROCS, 1 forces sequential scoring. Results are bit-identical at
// every setting; only CPU time changes.
func WithWorkers(n int) Option {
	return func(c *optConfig) { c.workers = n }
}

// WithWindow narrows candidate generation to sites within window×clock
// of the worst slack, with a per-phase budget of the most critical
// sites. Tighter windows evaluate far fewer candidates on large
// circuits at a small cost in final delay; 0 (the default) keeps the
// optimizer's default margins.
func WithWindow(window float64) Option {
	return func(c *optConfig) { c.window = window }
}

// WithRegions runs the optimizer in rounds: n > 1 runs up to 3
// whole-network rounds with a full re-analysis between them, stopping
// at the first round that does not improve the lateness; the value of
// n beyond 1 is not used. n <= 1 (the default) runs the optimizer once.
func WithRegions(n int) Option {
	return func(c *optConfig) { c.regions = n }
}

// WithVerification sets the number of 64-pattern random equivalence
// rounds run against a pre-optimization snapshot after the optimizer
// finishes: rounds > 0 verifies with that many rounds, rounds <= 0
// disables verification. The default is DefaultVerifyRounds. This is
// the single verification contract; harness.Config.VerifyRounds and the
// CLIs' -verify flags are documented in its terms.
func WithVerification(rounds int) Option {
	return func(c *optConfig) { c.verifyRounds = rounds }
}

// WithDeadline bounds the run to d of wall-clock time. When it expires
// the run stops at the next phase boundary exactly as if the caller's
// context had been cancelled (the anytime contract): the circuit holds
// the best-so-far network, Result.Interrupted is set, and the error
// wraps context.DeadlineExceeded. The deadline composes with the
// caller's context — whichever expires first wins. d <= 0 (the
// default) sets no deadline.
func WithDeadline(d time.Duration) Option {
	return func(c *optConfig) { c.deadline = d }
}

// WithProgress subscribes fn to the run's typed Event stream. fn is
// called synchronously on the optimizing goroutine: it must be fast,
// must not call back into the Circuit, and must not mutate anything the
// run reads. A nil fn is ignored.
func WithProgress(fn func(Event)) Option {
	return func(c *optConfig) { c.progress = fn }
}
