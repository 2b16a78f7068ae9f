package rapids

// JSON wire forms. Result and Event marshal with their Go field names;
// the enums below marshal as their canonical strings so payloads read
// naturally and survive constant renumbering. Spec is the serializable
// mirror of Optimize's functional options — the form rapids/server
// accepts over HTTP (DESIGN.md §5) and the only one of the three that
// loses information: WithProgress is a callback and has no wire form.

import (
	"encoding/json"
	"fmt"
	"time"
)

// MarshalJSON encodes the strategy as its ParseStrategy spelling
// ("gsg", "GS", or "gsg+GS").
func (s Strategy) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON decodes any spelling ParseStrategy accepts.
func (s *Strategy) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return fmt.Errorf("rapids: strategy must be a JSON string: %w", err)
	}
	v, err := ParseStrategy(str)
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// MarshalJSON encodes the verification outcome as its String form
// ("disabled", "passed", "FAILED", or "skipped").
func (v Verification) MarshalJSON() ([]byte, error) {
	return json.Marshal(v.String())
}

// UnmarshalJSON decodes the strings MarshalJSON produces.
func (v *Verification) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return fmt.Errorf("rapids: verification must be a JSON string: %w", err)
	}
	switch str {
	case "disabled":
		*v = VerifyDisabled
	case "passed":
		*v = VerifyPassed
	case "FAILED":
		*v = VerifyFailed
	case "skipped":
		*v = VerifySkipped
	default:
		return fmt.Errorf("rapids: unknown verification outcome %q", str)
	}
	return nil
}

// MarshalJSON encodes the event kind as its String form ("start",
// "phase", "verify", or "done").
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes the strings MarshalJSON produces.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return fmt.Errorf("rapids: event kind must be a JSON string: %w", err)
	}
	switch str {
	case "start":
		*k = EventStart
	case "phase":
		*k = EventPhase
	case "verify":
		*k = EventVerify
	case "done":
		*k = EventDone
	default:
		return fmt.Errorf("rapids: unknown event kind %q", str)
	}
	return nil
}

// Spec is the JSON-serializable mirror of Optimize's functional
// options. The zero value means "all defaults": zero-valued fields are
// omitted from the encoding, and pointer fields distinguish "unset, use
// the default" (nil) from an explicit zero (WithVerification(0)
// disables verification; the default is DefaultVerifyRounds).
//
// Spec.Options and NewSpec are inverses up to normalization, so a spec
// that crossed the wire reproduces a direct With* call list exactly —
// the contract rapids/server's result cache and the option round-trip
// tests rely on.
type Spec struct {
	// ClockNS mirrors WithClock; 0 targets the initial critical delay.
	ClockNS float64 `json:"clock_ns,omitempty"`
	// Strategy mirrors WithStrategy; nil selects the default (GsgGS).
	Strategy *Strategy `json:"strategy,omitempty"`
	// Iters mirrors WithIters; 0 selects the optimizer default.
	Iters int `json:"iters,omitempty"`
	// Workers mirrors WithWorkers; 0 uses GOMAXPROCS. Results are
	// bit-identical at every setting.
	Workers int `json:"workers,omitempty"`
	// Window mirrors WithWindow; 0 keeps the default margins.
	Window float64 `json:"window,omitempty"`
	// Regions mirrors WithRegions; > 1 optimizes in rounds.
	Regions int `json:"regions,omitempty"`
	// VerifyRounds mirrors WithVerification: nil runs
	// DefaultVerifyRounds, an explicit value <= 0 disables, > 0 runs
	// that many rounds.
	VerifyRounds *int `json:"verify_rounds,omitempty"`
	// TimeoutMS mirrors WithDeadline in whole milliseconds (the wire
	// granularity; sub-millisecond deadlines round up to 1). 0 sets no
	// deadline. Like Workers it never changes a completed Result — a
	// deadline that fires yields an interrupted run, which rapids/server
	// never caches — so the server excludes it from the cache key.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Options expands the spec into the equivalent Option list. Passing the
// result to Optimize behaves exactly like calling the With* options
// directly with the same values.
func (s Spec) Options() []Option {
	opts := []Option{
		WithClock(s.ClockNS),
		WithIters(s.Iters),
		WithWorkers(s.Workers),
		WithWindow(s.Window),
		WithRegions(s.Regions),
	}
	if s.Strategy != nil {
		opts = append(opts, WithStrategy(*s.Strategy))
	}
	if s.VerifyRounds != nil {
		opts = append(opts, WithVerification(*s.VerifyRounds))
	}
	if s.TimeoutMS > 0 {
		opts = append(opts, WithDeadline(time.Duration(s.TimeoutMS)*time.Millisecond))
	}
	return opts
}

// NewSpec captures an option list back into its wire form — the inverse
// of Spec.Options for every option except WithProgress, which is a
// callback and is dropped. The result is normalized: options restating
// a default collapse to the zero value, and equivalent spellings of
// "off" collapse to one — every knob documents non-positive as its
// default/disabled meaning (regions additionally treats 1 as
// whole-network, and verification treats any rounds <= 0 as disabled) —
// so NewSpec(s.Options()...) is the canonical form of s (rapids/server
// keys its result cache on it).
func NewSpec(opts ...Option) Spec {
	cfg := defaultConfig()
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	s := Spec{
		ClockNS: max(cfg.clock, 0),
		Iters:   max(cfg.iters, 0),
		Workers: max(cfg.workers, 0),
		Window:  max(cfg.window, 0),
	}
	if cfg.regions > 1 {
		s.Regions = cfg.regions
	}
	if cfg.strategy != GsgGS {
		st := cfg.strategy
		s.Strategy = &st
	}
	if vr := max(cfg.verifyRounds, 0); vr != DefaultVerifyRounds {
		s.VerifyRounds = &vr
	}
	if cfg.deadline > 0 {
		s.TimeoutMS = max(cfg.deadline.Milliseconds(), 1)
	}
	return s
}
