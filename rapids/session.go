package rapids

// Interactive ECO sessions (DESIGN.md §5d): a Session holds a live
// placed circuit with a persistent incremental timer attached. Clients
// apply small typed edits (Edit) and get back a Delta — the re-timed
// consequences of exactly the dirty region, not a whole-network
// re-analysis — plus optional targeted re-optimization of the affected
// neighborhood through the existing bounded optimizer machinery.
//
// Concurrency contract: one writer, many readers. All mutating calls
// (Apply, Reoptimize, Commit, Close) serialize on the session mutex.
// Readers never take it: View returns the immutable TimingView the last
// mutation published (an atomic pointer over an epoch-stamped
// network.Snapshot), so a reader pinned on an old view is never raced
// by a concurrent writer.
//
// Determinism contract: a session is a replayable fold. Applying the
// same edit sequence to the same starting circuit — in one session, in
// many sessions, or batch-from-scratch on a fresh load — produces a
// byte-identical network and bit-identical timing, because every edit
// maps to deterministic network mutators and the incremental timer is
// exact (reconvergence damping stops on bit-equality, not tolerance).
// rapids/server journals the edit log and rebuilds live sessions after
// a crash on exactly this property.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blif"
	"repro/internal/network"
	"repro/internal/opt"
	"repro/internal/sta"
)

// ErrSessionClosed is returned by session calls after Commit or Close.
var ErrSessionClosed = errors.New("rapids: session is closed")

// DefaultReoptWindow is the criticality window Reoptimize uses when the
// session was opened without WithWindow: only sites within this
// fraction of the clock off the worst slack are candidates, keeping
// re-optimization targeted at the region the edits disturbed.
const DefaultReoptWindow = 0.01

// SlackChange reports one gate whose slack moved under an Apply.
type SlackChange struct {
	Gate  string  `json:"gate"`
	OldNS float64 `json:"old_ns"`
	NewNS float64 `json:"new_ns"`
}

// Delta is the typed outcome of one Apply or Reoptimize: what the edit
// batch did to the circuit's timing, computed over the dirty region
// only.
type Delta struct {
	// Seq numbers the session's successful mutations from 1.
	Seq int `json:"seq"`
	// Edits is the number of edits in the batch (0 for Reoptimize).
	Edits int `json:"edits"`
	// DelayNS and PrevDelayNS are the critical delay after and before
	// the batch; LatenessNS is the worst primary-output lateness against
	// the session clock and any pinned required times (0 when timing is
	// met).
	DelayNS     float64 `json:"delay_ns"`
	PrevDelayNS float64 `json:"prev_delay_ns"`
	LatenessNS  float64 `json:"lateness_ns"`
	// TouchedGates counts the gates the incremental timer actually
	// re-timed — the measure that Apply is O(affected region):
	// FullReanalysis marks the rare fallback where the dirty region
	// crossed the full-analysis threshold and TouchedGates is the whole
	// network.
	TouchedGates   int  `json:"touched_gates"`
	FullReanalysis bool `json:"full_reanalysis,omitempty"`
	// Swaps and Resizes report committed optimizer moves (Reoptimize
	// only). Interrupted marks a Reoptimize stopped early by its
	// context, holding the best-so-far network (the anytime contract).
	Swaps       int  `json:"swaps,omitempty"`
	Resizes     int  `json:"resizes,omitempty"`
	Interrupted bool `json:"interrupted,omitempty"`
	// ChangedSlacks lists every pre-existing gate whose slack moved,
	// sorted by gate name.
	ChangedSlacks []SlackChange `json:"changed_slacks,omitempty"`
	// CriticalPath is the worst path after the batch, input first.
	CriticalPath []PathStage `json:"critical_path"`
	// Elapsed is the wall-clock time of the mutation + re-timing.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// TimingView is the immutable read view a session publishes after every
// mutation. It is safe to share across goroutines and stays valid —
// pinned at its epoch — while the session keeps mutating.
type TimingView struct {
	// Seq is the mutation sequence number that published this view (0
	// for the view BeginSession publishes).
	Seq int `json:"seq"`
	// Epoch is the network mutation epoch the view was captured at.
	Epoch uint64 `json:"epoch"`
	// DelayNS, LatenessNS: the critical delay and worst PO lateness.
	DelayNS    float64 `json:"delay_ns"`
	LatenessNS float64 `json:"lateness_ns"`
	// Gates counts live gates, primary inputs included.
	Gates int `json:"gates"`
	// CriticalPath is the worst path, input first.
	CriticalPath []PathStage `json:"critical_path"`

	snap *network.Snapshot
}

// WriteBLIF writes the pinned netlist snapshot in BLIF (sizes and
// placement are not part of the format). Two views at the same epoch
// write identical bytes.
func (v *TimingView) WriteBLIF(w io.Writer) error {
	return blif.Write(w, v.snap.Net())
}

// Session is a live ECO editing session on a Circuit. Create one with
// Circuit.BeginSession; while it is open, mutate the circuit only
// through the session.
type Session struct {
	mu     sync.Mutex
	c      *Circuit
	inc    *sta.Incremental
	bounds *sta.Bounds
	clock  float64

	strategy Strategy
	workers  int
	window   float64

	seq       int
	edits     int
	reopts    int
	closed    bool
	initialNS float64

	// prevSlack caches the last published slack by dense gate ID, so
	// changed-slack reporting is O(touched); prevBound is the ID bound
	// at the last publish (gates past it are new since then).
	prevSlack []float64
	prevBound int

	view atomic.Pointer[TimingView]
}

// BeginSession opens an ECO session on the placed circuit: one full
// seeding analysis, then every Apply re-times incrementally. Honored
// options: WithClock (<= 0 freezes the current critical delay, as
// Optimize does), WithStrategy/WithWorkers/WithWindow (used by
// Reoptimize; a zero window defaults to DefaultReoptWindow). The
// remaining Optimize options have no session meaning and are ignored.
//
// While the session is open the circuit must not be mutated except
// through the session; Commit or Close detaches the timer and returns
// the circuit to free use.
func (c *Circuit) BeginSession(ctx context.Context, opts ...Option) (*Session, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	if !c.placed {
		return nil, ErrNotPlaced
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("rapids: beginning session: %w", err)
		}
	}
	bounds := &sta.Bounds{}
	inc := sta.NewIncrementalBounded(c.net, c.lib, cfg.clock, bounds)
	tm := inc.Timing()
	s := &Session{
		c: c, inc: inc, bounds: bounds, clock: tm.Clock,
		strategy: cfg.strategy, workers: cfg.workers, window: cfg.window,
		initialNS: tm.CriticalDelay,
	}
	s.refreshSlacks(tm)
	s.publish(tm, pathStages(tm))
	return s, nil
}

// refreshSlacks rebuilds the whole prevSlack cache from tm.
func (s *Session) refreshSlacks(tm *sta.Timing) {
	bound := s.c.net.IDBound()
	if cap(s.prevSlack) < bound {
		s.prevSlack = make([]float64, bound)
	}
	s.prevSlack = s.prevSlack[:bound]
	s.c.net.Gates(func(g *network.Gate) {
		s.prevSlack[g.ID()] = tm.Slack(g)
	})
	s.prevBound = bound
}

// publish captures the current snapshot + timing into a fresh view;
// path is tm's critical path, which the view may share with a Delta
// since neither ever modifies it.
func (s *Session) publish(tm *sta.Timing, path []PathStage) {
	v := &TimingView{
		Seq:          s.seq,
		Epoch:        s.c.net.Epoch(),
		DelayNS:      tm.CriticalDelay,
		LatenessNS:   tm.Lateness,
		Gates:        s.c.net.NumGates(),
		CriticalPath: path,
		snap:         s.c.net.Snapshot(),
	}
	s.view.Store(v)
}

// View returns the immutable view of the last published mutation. It
// never blocks on the writer — readers may hold views pinned at old
// epochs indefinitely.
func (s *Session) View() *TimingView { return s.view.Load() }

// Clock returns the session's frozen clock in ns.
func (s *Session) Clock() float64 { return s.clock }

// resolve maps an edit to its target gate and checks the semantic
// contract against the live circuit.
func (s *Session) resolve(e Edit) (*network.Gate, error) {
	g := s.c.net.FindGate(e.Gate)
	if g == nil {
		return nil, fmt.Errorf("rapids: edit %s: unknown gate", e)
	}
	switch e.Kind {
	case EditResize:
		if g.IsInput() {
			return nil, fmt.Errorf("rapids: edit %s: cannot resize a primary input", e)
		}
		if _, err := s.c.lib.Cell(g.Type, g.NumFanins(), e.Size); err != nil {
			return nil, fmt.Errorf("rapids: edit %s: %w", e, err)
		}
	case EditRetype:
		if g.IsInput() {
			return nil, fmt.Errorf("rapids: edit %s: cannot retype a primary input", e)
		}
		nt, _ := parseGateType(e.GateType) // Validate vetted the spelling
		if nt.IsUnary() && g.NumFanins() != 1 {
			return nil, fmt.Errorf("rapids: edit %s: unary type on %d fanins", e, g.NumFanins())
		}
		if g.NumFanins() < nt.MinFanin() {
			return nil, fmt.Errorf("rapids: edit %s: %s needs >= %d fanins, gate has %d",
				e, nt, nt.MinFanin(), g.NumFanins())
		}
		if _, err := s.c.lib.Cell(nt, g.NumFanins(), g.SizeIdx); err != nil {
			return nil, fmt.Errorf("rapids: edit %s: %w", e, err)
		}
	case EditPinArrival:
		if !g.IsInput() {
			return nil, fmt.Errorf("rapids: edit %s: gate is not a primary input", e)
		}
	case EditPinRequired:
		if !g.PO {
			return nil, fmt.Errorf("rapids: edit %s: gate is not a primary output", e)
		}
	}
	return g, nil
}

// Apply validates the whole batch, applies it, re-times the dirty
// region, and returns the Delta. Validation is all-or-nothing: any
// invalid edit rejects the batch before the circuit is touched.
func (s *Session) Apply(edits ...Edit) (*Delta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	targets := make([]*network.Gate, len(edits))
	for i, e := range edits {
		if err := e.Validate(); err != nil {
			return nil, err
		}
		g, err := s.resolve(e)
		if err != nil {
			return nil, err
		}
		targets[i] = g
	}

	start := time.Now()
	prev := s.inc.Timing().CriticalDelay
	for i, e := range edits {
		g := targets[i]
		switch e.Kind {
		case EditResize:
			s.c.net.SetSize(g, e.Size)
		case EditRetype:
			nt, _ := parseGateType(e.GateType)
			s.c.net.SetGateType(g, nt)
		case EditPinArrival:
			if s.bounds.PIArrival == nil {
				s.bounds.PIArrival = make(map[*network.Gate]sta.Edge)
			}
			s.bounds.PIArrival[g] = sta.Edge{Rise: e.TimeNS, Fall: e.TimeNS}
			s.bounds.Invalidate()
			s.c.net.Touch(g)
		case EditPinRequired:
			if s.bounds.PORequired == nil {
				s.bounds.PORequired = make(map[*network.Gate]sta.Edge)
			}
			s.bounds.PORequired[g] = sta.Edge{Rise: e.TimeNS, Fall: e.TimeNS}
			s.bounds.Invalidate()
			s.c.net.Touch(g)
		}
	}
	s.edits += len(edits)
	d := s.retime(prev, start)
	d.Edits = len(edits)
	return d, nil
}

// Reoptimize runs one targeted optimizer pass over the critical
// neighborhood — the session's strategy under its frozen clock and
// pinned bounds, criticality-windowed so only sites near the worst
// slack are candidates — and returns the resulting Delta. It follows
// the PR 4 anytime contract: cancelling ctx stops the pass at the next
// phase boundary with the best-so-far network committed, the Delta's
// Interrupted flag set, and an error wrapping ctx.Err().
//
// Sessions never run functional verification (edits such as retype
// change the circuit's function by design); the optimizer pass itself
// preserves function exactly as Optimize does.
func (s *Session) Reoptimize(ctx context.Context) (*Delta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	window := s.window
	if window <= 0 {
		window = DefaultReoptWindow
	}
	start := time.Now()
	prev := s.inc.Timing().CriticalDelay
	ores := opt.Optimize(ctx, s.c.net, s.c.lib, opt.Strategy(s.strategy), opt.Options{
		Clock: s.clock, MaxIters: 1, Workers: s.workers,
		Window: window, Bounds: s.bounds,
	})
	s.reopts++
	d := s.retime(prev, start)
	d.Swaps, d.Resizes, d.Interrupted = ores.Swaps, ores.Resizes, ores.Interrupted
	if ores.Interrupted && ctx != nil && ctx.Err() != nil {
		return d, fmt.Errorf("rapids: reoptimization interrupted: %w", ctx.Err())
	}
	return d, nil
}

// retime brings timing current, publishes a fresh view, and builds the
// Delta for a mutation that started at start with critical delay prev.
func (s *Session) retime(prev float64, start time.Time) *Delta {
	tm := s.inc.Update()
	s.seq++
	d := &Delta{
		Seq:            s.seq,
		DelayNS:        tm.CriticalDelay,
		PrevDelayNS:    prev,
		LatenessNS:     tm.Lateness,
		TouchedGates:   s.inc.LastTouchedCount(),
		FullReanalysis: s.inc.LastUpdateFull(),
		CriticalPath:   pathStages(tm),
	}
	if d.FullReanalysis {
		// Whole-network re-analysis: diff every live gate's slack.
		s.c.net.Gates(func(g *network.Gate) {
			id := g.ID()
			if id < s.prevBound {
				if old, now := s.prevSlack[id], tm.Slack(g); old != now {
					d.ChangedSlacks = append(d.ChangedSlacks, SlackChange{
						Gate: g.Name(), OldNS: old, NewNS: now,
					})
				}
			}
		})
		s.refreshSlacks(tm)
	} else {
		bound := s.c.net.IDBound()
		if cap(s.prevSlack) < bound {
			grown := make([]float64, bound)
			copy(grown, s.prevSlack)
			s.prevSlack = grown
		}
		s.prevSlack = s.prevSlack[:bound]
		touched := s.inc.LastTouched()
		d.ChangedSlacks = make([]SlackChange, 0, len(touched)) // at most one per touched gate
		for _, g := range touched {
			if !s.c.net.Live(g) {
				continue // removed during the mutation
			}
			id := g.ID()
			now := tm.Slack(g)
			if id < s.prevBound && s.prevSlack[id] != now {
				d.ChangedSlacks = append(d.ChangedSlacks, SlackChange{
					Gate: g.Name(), OldNS: s.prevSlack[id], NewNS: now,
				})
			}
			s.prevSlack[id] = now
		}
		s.prevBound = bound
	}
	slices.SortFunc(d.ChangedSlacks, func(a, b SlackChange) int {
		return strings.Compare(a.Gate, b.Gate)
	})
	d.Elapsed = time.Since(start)
	s.publish(tm, d.CriticalPath)
	return d
}

// SessionResult summarizes a committed session.
type SessionResult struct {
	// Edits and Reopts count the successful Apply edits and Reoptimize
	// passes; Seq is the total mutation count.
	Edits  int `json:"edits"`
	Reopts int `json:"reopts,omitempty"`
	Seq    int `json:"seq"`
	// InitialDelayNS and FinalDelayNS bracket the session; LatenessNS
	// is the final worst lateness.
	InitialDelayNS float64 `json:"initial_delay_ns"`
	FinalDelayNS   float64 `json:"final_delay_ns"`
	LatenessNS     float64 `json:"lateness_ns"`
}

// Commit finalizes the session: timing is brought current, the timer
// detaches, and the circuit — which already holds every applied edit —
// returns to free use. The session is closed afterwards.
func (s *Session) Commit() (*SessionResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	tm := s.inc.Update()
	s.publish(tm, pathStages(tm))
	res := &SessionResult{
		Edits: s.edits, Reopts: s.reopts, Seq: s.seq,
		InitialDelayNS: s.initialNS,
		FinalDelayNS:   tm.CriticalDelay,
		LatenessNS:     tm.Lateness,
	}
	s.detach()
	return res, nil
}

// Close abandons the session without a summary. Edits already applied
// stay in the circuit (every Apply left it consistent — the anytime
// property); only the timer detaches. Close is idempotent, and closing
// a committed session is a no-op.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.detach()
	}
	return nil
}

// detach unhooks the timer; callers hold the mutex.
func (s *Session) detach() {
	s.inc.Close()
	s.closed = true
}

// pathStages converts a Timing's critical path to the reported form,
// primary input first — shared by Circuit.CriticalPath and the session
// views.
func pathStages(tm *sta.Timing) []PathStage {
	path := tm.CriticalPath()
	stages := make([]PathStage, 0, len(path))
	prev := 0.0
	for i, g := range path {
		arr := tm.Arrival(g).Max()
		wire := 0.0
		if i > 0 {
			wire = tm.WireDelay(path[i-1], g)
		}
		stages = append(stages, PathStage{
			Gate: g.Name(), Cell: g.Type.String(), Size: g.SizeIdx,
			ArrivalNS: arr, GateDelayNS: arr - prev, WireDelayNS: wire,
			LoadPF: tm.Load(g),
		})
		prev = arr
	}
	return stages
}
