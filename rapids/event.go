package rapids

import (
	"fmt"
	"time"
)

// EventKind discriminates the stages of an Optimize run's Event stream.
type EventKind int

const (
	// EventStart opens a run: DelayNS carries the initial critical
	// delay.
	EventStart EventKind = iota
	// EventPhase reports one completed optimizer phase (an objective
	// pass, or a whole round of a WithRegions run).
	EventPhase
	// EventVerify reports the verification outcome (see Verification).
	EventVerify
	// EventDone closes a run; Result carries the full structured
	// result.
	EventDone
)

func (k EventKind) String() string {
	switch k {
	case EventStart:
		return "start"
	case EventPhase:
		return "phase"
	case EventVerify:
		return "verify"
	case EventDone:
		return "done"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one machine-readable progress milestone of an Optimize run,
// delivered through WithProgress.
type Event struct {
	Kind     EventKind
	Circuit  string
	Strategy Strategy
	// Iteration (1-based) and Phase identify EventPhase milestones:
	// Phase is "min-slack", "sum-slack", or "round".
	Iteration int
	Phase     string
	// Applied is the number of moves the phase committed (post-guard).
	Applied int
	// DelayNS is the critical delay after the milestone, per the
	// incremental timer.
	DelayNS float64
	// Swaps and Resizes are cumulative counts for the run.
	Swaps   int
	Resizes int
	// Verification is set on EventVerify and EventDone.
	Verification Verification
	// Elapsed is the wall-clock time since the run's previous event
	// (since Optimize was entered for EventStart) — the duration of
	// the work the event reports: the seeding analysis for EventStart,
	// the phase itself for EventPhase, the equivalence check for
	// EventVerify. Consumers can feed it straight into per-phase
	// latency histograms (rapidsd does; DESIGN.md §5b). Wall-clock
	// time is the one field of an Event that is NOT deterministic
	// across runs.
	Elapsed time.Duration
	// Result is set on EventDone only.
	Result *Result
}

// String renders the event as a stable one-line human-readable summary
// (CLIs print it verbatim for -v output).
func (e Event) String() string {
	switch e.Kind {
	case EventStart:
		return fmt.Sprintf("%s %s: start, critical delay %.3f ns",
			e.Circuit, e.Strategy, e.DelayNS)
	case EventPhase:
		return fmt.Sprintf("%s %s: iter %d %s, %d moves, delay %.3f ns (%d swaps, %d resizes)",
			e.Circuit, e.Strategy, e.Iteration, e.Phase, e.Applied,
			e.DelayNS, e.Swaps, e.Resizes)
	case EventVerify:
		return fmt.Sprintf("%s %s: verification %s", e.Circuit, e.Strategy, e.Verification)
	case EventDone:
		r := e.Result
		if r == nil {
			return fmt.Sprintf("%s %s: done", e.Circuit, e.Strategy)
		}
		suffix := ""
		if r.Interrupted {
			suffix = " [interrupted]"
		}
		return fmt.Sprintf("%s %s: done, delay %.3f -> %.3f ns (%.1f%%), area %+.1f%%, %d swaps, %d resizes, verification %s%s",
			e.Circuit, e.Strategy, r.InitialDelayNS, r.FinalDelayNS,
			r.ImprovementPct(), r.AreaDeltaPct(), r.Swaps, r.Resizes,
			r.Verification, suffix)
	}
	return fmt.Sprintf("%s %s: %s", e.Circuit, e.Strategy, e.Kind)
}
