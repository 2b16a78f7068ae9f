// The move-evaluation engine: candidate generation and scoring for one
// optimizer phase, sharded across a worker pool.
//
// Scoring is exactly the workload that parallelizes for free in this
// flow: every candidate (a supergate's best swap, a gate's best resize)
// is ranked against the *frozen* timing view of the last incremental
// update — pure reads of sta.Timing — while all mutation happens later,
// single-threaded, in the apply loop. The engine therefore collects the
// candidate sites into deterministic slices, fans the scoring out over
// GOMAXPROCS workers each owning a private sta.Scratch arena (zero
// steady-state allocations), and writes each result into the slot of its
// site index. The merged move list is compacted in site order and sorted
// by (gain, dense gate ID), a total order — so the result is bit-identical
// whether it was produced by 1 worker or 64.
package opt

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/library"
	"repro/internal/network"
	"repro/internal/rewire"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/supergate"
)

// Move is one scored candidate: exactly one of a supergate leaf swap
// (IsSwap) or a gate resize.
type Move struct {
	Gain   float64
	IsSwap bool
	// Swap is the rewiring move when IsSwap.
	Swap rewire.Swap
	// Gate and Size describe the resize otherwise.
	Gate *network.Gate
	Size int
}

// key is the deterministic tie-break identity of the move's site: the
// supergate root's dense ID for swaps, the resized gate's for resizes.
func (m Move) key() int {
	if m.IsSwap {
		return m.Swap.SG.Root.ID()
	}
	return m.Gate.ID()
}

// sortMoves orders moves by descending gain with the site's dense gate ID
// (then move kind) as stable secondary keys — a total order, so the
// sorted list does not depend on the order candidates were produced in.
func sortMoves(moves []Move) {
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].Gain != moves[j].Gain {
			return moves[i].Gain > moves[j].Gain
		}
		if ki, kj := moves[i].key(), moves[j].key(); ki != kj {
			return ki < kj
		}
		return moves[i].IsSwap && !moves[j].IsSwap
	})
}

// workerState is one worker's private evaluation state: a scoring arena,
// the resize frame that evaluates through it, a reusable swap-enumeration
// buffer, and local work counters merged into the engine's stats after
// every phase.
type workerState struct {
	sc    *sta.Scratch
	rs    *sizing.Frame
	swaps []rewire.Swap

	swapEvals   int
	resizeEvals int
}

// EvalStats counts the candidate-generation work an Engine performed
// across its phases. All counts are deterministic functions of the input
// (per-site work is fixed), so they are identical at every worker count.
type EvalStats struct {
	// Phases counts Moves calls: one per optimizer phase scored. A
	// phase whose batch is rolled back retries from the same ranking,
	// so it still counts once.
	Phases int
	// SwapSites and ResizeSites count candidate sites scored: supergates
	// whose swap enumerations were evaluated, gates whose alternative
	// sizes were evaluated.
	SwapSites   int
	ResizeSites int
	// SwapEvals and ResizeEvals count individual candidates scored — the
	// unit of work the criticality window cuts down.
	SwapEvals   int
	ResizeEvals int
	// Moves counts positive-gain moves returned to the apply loop.
	Moves int
}

// Candidates returns the total number of individual candidates scored.
func (s EvalStats) Candidates() int { return s.SwapEvals + s.ResizeEvals }

// PerPhase returns the mean number of candidates scored per phase.
func (s EvalStats) PerPhase() float64 {
	if s.Phases == 0 {
		return 0
	}
	return float64(s.Candidates()) / float64(s.Phases)
}

// Add folds another run's counters into s; OptimizeRounds sums its
// rounds with it. Every EvalStats field must be folded here.
func (s *EvalStats) Add(o EvalStats) {
	s.Phases += o.Phases
	s.SwapSites += o.SwapSites
	s.ResizeSites += o.ResizeSites
	s.SwapEvals += o.SwapEvals
	s.ResizeEvals += o.ResizeEvals
	s.Moves += o.Moves
}

// add merges worker-local counters.
func (s *EvalStats) add(ws *workerState) {
	s.SwapEvals += ws.swapEvals
	s.ResizeEvals += ws.resizeEvals
	ws.swapEvals = 0
	ws.resizeEvals = 0
}

// Engine scores candidate moves for the optimizer. One Engine serves one
// Optimize run (or one benchmark loop); it owns a Scratch per worker and
// is not safe for concurrent Moves calls.
type Engine struct {
	workers int
	state   []*workerState
	stats   EvalStats
}

// NewEngine builds an engine with the given parallelism; workers <= 0
// selects GOMAXPROCS. The per-worker arenas come from the shared scratch
// pool, so engines created run after run reuse grown arrays instead of
// paying the warm-up allocations again; Release returns them.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{workers: workers, state: make([]*workerState, workers)}
	for i := range e.state {
		sc := sta.GetScratch()
		e.state[i] = &workerState{sc: sc, rs: sizing.NewFrame(sc)}
	}
	return e
}

// Release returns the engine's arenas to the shared scratch pool. The
// engine must not be used afterwards.
func (e *Engine) Release() {
	for i, ws := range e.state {
		sta.PutScratch(ws.sc)
		e.state[i] = nil
	}
	e.state = nil
}

// Workers returns the engine's parallelism.
func (e *Engine) Workers() int { return e.workers }

// Stats returns the accumulated candidate-generation counters.
func (e *Engine) Stats() EvalStats { return e.stats }

// TakeStats returns the accumulated counters and resets them, so one
// engine can serve several Optimize runs (OptimizeRounds reuses one
// engine across its rounds) with each run reporting only its own work.
func (e *Engine) TakeStats() EvalStats {
	s := e.stats
	e.stats = EvalStats{}
	return s
}

// Moves generates and scores the strategy's candidates for one phase
// against the frozen timing view, returning them sorted by (gain, site
// ID). ext supplies the supergate decomposition and may be nil for the
// GS strategy. o needs MaxSwapLeaves set (Optimize's defaulting applies).
func (e *Engine) Moves(tm *sta.Timing, strat Strategy, obj sizing.Objective, o Options, ext *supergate.Extraction) []Move {
	n := tm.Network()

	// In the min-slack phase only sites touching the critical region are
	// candidates (Coudert: maximize the *minimum* slack). Moves at
	// off-critical sites cannot raise the minimum, but their local scores
	// would still rank positive, flooding the batch with irrelevant —
	// and collectively harmful — changes. The relaxation phase works a
	// wider band around the bottleneck (it spreads slack to let the next
	// min-slack phase escape the local minimum), but not the whole
	// network: global sum-of-slacks moves degenerate into mass downsizing
	// that the guard then rejects. Options.Window overrides the default
	// 2 % / 10 % margins with Window / 5×Window of the clock.
	margin := 0.02 * tm.Clock
	if obj == sizing.SumSlack {
		margin = 0.10 * tm.Clock
	}
	if o.Window > 0 {
		margin = o.Window * tm.Clock
		if obj == sizing.SumSlack {
			margin = 5 * o.Window * tm.Clock
		}
	}
	threshold := tm.WorstSlack() + margin
	critical := func(g *network.Gate) bool { return tm.Slack(g) <= threshold }

	var swapSites []*supergate.Supergate
	if strat != GS && ext != nil {
		for _, sg := range ext.NonTrivial() {
			if len(sg.Leaves) > o.MaxSwapLeaves {
				continue
			}
			if !supergateCritical(sg, critical) {
				continue
			}
			swapSites = append(swapSites, sg)
		}
	}
	var resizeSites []*network.Gate
	if strat != Gsg {
		sizable := sizableFilter(strat, ext)
		n.Gates(func(g *network.Gate) {
			if g.IsInput() || !sizable(g) || !neighborhoodCritical(g, critical) {
				return
			}
			resizeSites = append(resizeSites, g)
		})
	}

	// Windowed mode additionally bounds the per-phase site count: sites
	// are ranked by their own criticality (worst slack over the gates a
	// move there can touch) and only the most critical
	// max(windowSiteFloor, 10·Window·N) are scored. On circuits with a
	// large tied-slack critical core — where no margin can prune — this
	// is what turns the window into a real work bound; small circuits sit
	// under the floor and see no change. Dropped sites are not lost: the
	// slack profile shifts every accepted batch, and later phases re-rank.
	if o.Window > 0 {
		swapSites, resizeSites = e.budgetSites(tm, swapSites, resizeSites,
			windowSiteBudget(o.Window, n.NumLogicGates()))
	}

	// Every site scores into its own slot; a zero Gain marks "no move".
	e.stats.Phases++
	e.stats.SwapSites += len(swapSites)
	e.stats.ResizeSites += len(resizeSites)
	results := make([]Move, len(swapSites)+len(resizeSites))
	e.scoreAll(len(results), func(i int, ws *workerState) {
		if i < len(swapSites) {
			sg := swapSites[i]
			if s, gain := bestSwap(tm, sg, obj, ws); gain > eps {
				results[i] = Move{Gain: gain, IsSwap: true, Swap: s}
			}
			return
		}
		g := resizeSites[i-len(swapSites)]
		ws.resizeEvals += library.NumSizes - 1
		if size, gain := ws.rs.BestResize(tm, g, obj); gain > eps {
			results[i] = Move{Gain: gain, Gate: g, Size: size}
		}
	})
	for _, ws := range e.state {
		e.stats.add(ws)
	}
	moves := results[:0]
	for _, m := range results {
		if m.Gain > eps {
			moves = append(moves, m)
		}
	}
	sortMoves(moves)
	e.stats.Moves += len(moves)
	return moves
}

// windowSiteFloor is the minimum per-phase site budget in windowed mode;
// circuits whose candidate count sits under it are never truncated.
const windowSiteFloor = 256

// windowSiteBudget returns the windowed per-phase site cap for a circuit
// of n logic gates.
func windowSiteBudget(window float64, n int) int {
	b := int(10 * window * float64(n))
	if b < windowSiteFloor {
		b = windowSiteFloor
	}
	return b
}

// budgetSites keeps the budget most-critical sites across both site
// kinds, ranking by the worst slack a move at the site can touch with the
// dense site ID as the deterministic tie-break.
func (e *Engine) budgetSites(tm *sta.Timing, swapSites []*supergate.Supergate, resizeSites []*network.Gate, budget int) ([]*supergate.Supergate, []*network.Gate) {
	total := len(swapSites) + len(resizeSites)
	if total <= budget {
		return swapSites, resizeSites
	}
	type rankedSite struct {
		slack float64
		id    int
		swap  int // index+1 into swapSites, 0 for resize sites
		gate  *network.Gate
	}
	ranked := make([]rankedSite, 0, total)
	for i, sg := range swapSites {
		s := math.MaxFloat64
		for _, g := range sg.Gates {
			if v := tm.Slack(g); v < s {
				s = v
			}
		}
		for _, l := range sg.Leaves {
			if v := tm.Slack(l.Driver); v < s {
				s = v
			}
		}
		ranked = append(ranked, rankedSite{slack: s, id: sg.Root.ID(), swap: i + 1})
	}
	for _, g := range resizeSites {
		s := tm.Slack(g)
		for _, d := range g.Fanins() {
			if v := tm.Slack(d); v < s {
				s = v
			}
		}
		ranked = append(ranked, rankedSite{slack: s, id: g.ID(), gate: g})
	}
	// A total order: swap is unique per swap site and 0 for resizes, so
	// the budget selected never depends on the sort algorithm.
	slices.SortFunc(ranked, func(a, b rankedSite) int {
		switch {
		case a.slack != b.slack:
			if a.slack < b.slack {
				return -1
			}
			return 1
		case a.id != b.id:
			return a.id - b.id
		default:
			return b.swap - a.swap
		}
	})
	var outSwaps []*supergate.Supergate
	var outResizes []*network.Gate
	for _, r := range ranked[:budget] {
		if r.swap > 0 {
			outSwaps = append(outSwaps, swapSites[r.swap-1])
		} else {
			outResizes = append(outResizes, r.gate)
		}
	}
	return outSwaps, outResizes
}

// scoreAll runs fn over task indices [0, nTasks), sequentially on one
// scratch for a single-worker engine, otherwise on the worker pool with
// one scratch per worker. Tasks are claimed off a shared atomic counter,
// so sharding is load-balanced; determinism comes from each task writing
// only its own result slot.
func (e *Engine) scoreAll(nTasks int, fn func(i int, ws *workerState)) {
	if e.workers == 1 || nTasks <= 1 {
		for i := 0; i < nTasks; i++ {
			fn(i, e.state[0])
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	w := e.workers
	if w > nTasks {
		w = nTasks
	}
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(ws *workerState) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= nTasks {
					return
				}
				fn(i, ws)
			}
		}(e.state[k])
	}
	wg.Wait()
}

// bestSwap returns the best-gaining swap of a supergate (§5: "for each
// supergate, we find the best swap which maximizes the minimum slack in
// its neighborhood").
func bestSwap(tm *sta.Timing, sg *supergate.Supergate, obj sizing.Objective, ws *workerState) (rewire.Swap, float64) {
	var best rewire.Swap
	bestGain := 0.0
	ws.swaps = rewire.EnumerateInto(ws.swaps[:0], sg)
	ws.swapEvals += len(ws.swaps)
	for _, s := range ws.swaps {
		if gain := EvalSwapScratch(tm, s, obj, ws.sc); gain > bestGain+eps {
			bestGain = gain
			best = s
		}
	}
	return best, bestGain
}

// EvalSwapScratch locally evaluates the objective gain of a swap against
// tm: the two affected drivers' nets are rebuilt with the exchanged sink,
// their arrivals recomputed, and the slacks of every gate they feed
// rescored with required times frozen. Inverting swaps add the inverter's
// cell delay at the receiving pin (the committed batch is still guarded by
// a full analysis). It is a pure read of tm through the arena sc, with
// zero steady-state allocations. The before/after neighborhoods are
// collected once into a deterministic slice (drivers first, then sinks in
// post-exchange net order), so the score — float summation order
// included — never depends on map iteration.
func EvalSwapScratch(tm *sta.Timing, s rewire.Swap, obj sizing.Objective, sc *sta.Scratch) float64 {
	pa := s.SG.Leaves[s.I].Pin
	pb := s.SG.Leaves[s.J].Pin
	ka, kb := pa.Driver(), pb.Driver()
	if ka == kb {
		return 0
	}
	sc.Begin(tm)
	// Hypothetical sink multisets after the exchange.
	sc.SinksA = swapOneSink(sc.SinksA[:0], ka.Fanouts(), pa.Gate, pb.Gate)
	sc.SinksB = swapOneSink(sc.SinksB[:0], kb.Fanouts(), pb.Gate, pa.Gate)
	// Scratch.Net already folds in the PO pad load.
	netA := sc.Net(tm, ka, sc.SinksA)
	netB := sc.Net(tm, kb, sc.SinksB)
	arrOf := func(k *network.Gate, load float64) sta.Edge {
		if k.IsInput() {
			return sta.Edge{}
		}
		sc.Pins = sc.Pins[:0]
		for j, d := range k.Fanins() {
			a := tm.Arrival(d)
			w := tm.PinWireDelay(d, k, j)
			sc.Pins = append(sc.Pins, sta.Edge{Rise: a.Rise + w, Fall: a.Fall + w})
		}
		return tm.GateOutput(k, sc.Pins, load)
	}
	arrA := arrOf(ka, netA.Load)
	arrB := arrOf(kb, netB.Load)

	// Neighborhood: the two drivers plus every sink either of them
	// touches before or after the exchange (the same set).
	sc.MarkSeen(ka)
	sc.MarkSeen(kb)
	sc.Hood = sc.Hood[:0]
	for _, t := range sc.SinksA {
		if sc.MarkSeen(t) {
			sc.Hood = append(sc.Hood, t)
		}
	}
	for _, t := range sc.SinksB {
		if sc.MarkSeen(t) {
			sc.Hood = append(sc.Hood, t)
		}
	}
	invPenalty := 0.0
	if s.Inverting {
		// Approximate: one smallest-inverter delay per redirected pin at a
		// typical ~5 fF load. The committed batch is still validated by a
		// full analysis, so this only needs to rank candidates sensibly.
		invPenalty = invDelayEstimatePenalty
	}
	slackOf := func(x *network.Gate, arr sta.Edge) float64 {
		r := tm.Required(x)
		return math.Min(r.Rise-arr.Rise, r.Fall-arr.Fall)
	}
	sc.Slacks = sc.Slacks[:0]
	if !ka.IsInput() {
		sc.Slacks = append(sc.Slacks, slackOf(ka, arrA))
	}
	if !kb.IsInput() {
		sc.Slacks = append(sc.Slacks, slackOf(kb, arrB))
	}
	for _, t := range sc.Hood {
		sc.Pins = sc.Pins[:0]
		for i, d := range t.Fanins() {
			// The hypothetical connection: pin pa is now fed by kb, pin
			// pb by ka.
			cur := network.Pin{Gate: t, Index: i}
			switch {
			case cur == pa:
				d = kb
			case cur == pb:
				d = ka
			}
			var a sta.Edge
			var w float64
			switch d {
			case ka:
				a, w = arrA, netA.SinkDelay(t)
			case kb:
				a, w = arrB, netB.SinkDelay(t)
			default:
				a, w = tm.Arrival(d), tm.PinWireDelay(d, t, i)
			}
			pen := 0.0
			if cur == pa || cur == pb {
				pen = invPenalty
			}
			sc.Pins = append(sc.Pins, sta.Edge{Rise: a.Rise + w + pen, Fall: a.Fall + w + pen})
		}
		sc.Slacks = append(sc.Slacks, slackOf(t, tm.GateOutput(t, sc.Pins, tm.Load(t))))
	}

	// Baseline: the same gate set under committed timing, in the same
	// deterministic order.
	sc.Before = sc.Before[:0]
	if !ka.IsInput() {
		sc.Before = append(sc.Before, tm.Slack(ka))
	}
	if !kb.IsInput() {
		sc.Before = append(sc.Before, tm.Slack(kb))
	}
	for _, t := range sc.Hood {
		sc.Before = append(sc.Before, tm.Slack(t))
	}
	return sizing.Score(obj, sc.Slacks, tm.Clock) - sizing.Score(obj, sc.Before, tm.Clock)
}

// swapOneSink appends fanouts to out with a single occurrence of from
// replaced by to.
func swapOneSink(out, fanouts []*network.Gate, from, to *network.Gate) []*network.Gate {
	replaced := false
	for _, f := range fanouts {
		if !replaced && f == from {
			out = append(out, to)
			replaced = true
			continue
		}
		out = append(out, f)
	}
	return out
}

// invDelayEstimatePenalty is a representative smallest-inverter delay
// (intrinsic + drive resistance × ~5 fF) used to penalize inverting swaps
// during candidate ranking.
const invDelayEstimatePenalty = 0.03 + 8.0*0.005
