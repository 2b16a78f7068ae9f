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
// site. The merged move list is compacted in site order and sorted by
// (gain, dense gate ID), a total order — so the result is bit-identical
// whether it was produced by 1 worker or 64.
//
// A site is scored once per network state. Its candidates' slack vectors
// do not depend on the phase asking, so each is reduced under both
// objectives, and the engine keeps every scored site's best move under
// each for the state its timing view's version (sta.Timing.Version)
// names. A phase on that same state — after a rejected batch has been
// rolled back, the optimizer's timer reports the version the scores were
// taken at — takes its moves from those scores and scores only the sites
// they lack; a phase at any other version starts them afresh, and any
// accepted batch moves the version on.
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

// siteMove is a site's best move under one objective: the swap of leaves
// a and b (inverting when inv), or the resize to size a. A gain of at
// most eps means the site offers no move.
type siteMove struct {
	gain float64
	a, b int32
	inv  bool
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
	// sizes were evaluated. A site whose scores a phase took from the
	// engine's buffer is not scored again and not counted again.
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

	// The site scores of the network state timed at version scoredAt:
	// scores holds each scored site's best move per objective (indexed
	// by sizing.Objective), and slot maps a swap site's root ID
	// (slot[0]) or a resized gate's ID (slot[1]) to its entry's index
	// plus one, 0 for a site not scored yet.
	scoredAt uint64
	scores   [][2]siteMove
	slot     [2][]int32

	// Per-phase buffers, reused across phases; slack holds the phase's
	// gate slacks and crit its criticality predicate, both by gate ID.
	slack         []float64
	crit          []bool
	swapSites     []*supergate.Supergate
	resizeSites   []*network.Gate
	todo          []int
	ranked        []rankedSite
	budgetSwaps   []*supergate.Supergate
	budgetResizes []*network.Gate
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
// Sites scored at the view's version by an earlier call are not scored
// again (see the package comment); the ranking is bit-identical to a
// fresh engine's.
func (e *Engine) Moves(tm *sta.Timing, strat Strategy, obj sizing.Objective, o Options, ext *supergate.Extraction) []Move {
	// Version panics on a view whose required times are pending, so no
	// phase scores stale slacks.
	ver := tm.Version()
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

	// One slack pass serves the whole phase: every live gate's slack by
	// ID, their minimum (tm.WorstSlack's fold, in its order) and the
	// logic gate count the windowed budget scales with.
	bound := n.IDBound()
	e.slack = slices.Grow(e.slack[:0], bound)[:bound]
	worst, logic := math.MaxFloat64, 0
	n.Gates(func(g *network.Gate) {
		s := tm.Slack(g)
		e.slack[g.ID()] = s
		if s < worst {
			worst = s
		}
		if !g.IsInput() {
			logic++
		}
	})
	threshold := worst + margin
	e.crit = slices.Grow(e.crit[:0], bound)[:bound]
	n.Gates(func(g *network.Gate) { e.crit[g.ID()] = e.slack[g.ID()] <= threshold })

	swapSites := e.swapSites[:0]
	if strat != GS && ext != nil {
		nt := ext.NonTrivial()
		swapSites = slices.Grow(swapSites, len(nt))
		for _, sg := range nt {
			if len(sg.Leaves) > o.MaxSwapLeaves {
				continue
			}
			if !supergateCritical(sg, e.crit) {
				continue
			}
			swapSites = append(swapSites, sg)
		}
	}
	resizeSites := e.resizeSites[:0]
	if strat != Gsg {
		resizeSites = slices.Grow(resizeSites, n.NumGates())
		sizable := sizableFilter(strat, ext)
		n.Gates(func(g *network.Gate) {
			if g.IsInput() || !sizable(g) || !neighborhoodCritical(g, e.crit) {
				return
			}
			resizeSites = append(resizeSites, g)
		})
	}
	e.swapSites, e.resizeSites = swapSites, resizeSites

	// Windowed mode additionally bounds the per-phase site count: sites
	// are ranked by their own criticality (worst slack over the gates a
	// move there can touch) and only the most critical
	// max(windowSiteFloor, 10·Window·N) are scored. On circuits with a
	// large tied-slack critical core — where no margin can prune — this
	// is what turns the window into a real work bound; small circuits sit
	// under the floor and see no change. Dropped sites are not lost: the
	// slack profile shifts every accepted batch, and later phases re-rank.
	if o.Window > 0 {
		swapSites, resizeSites = e.budgetSites(swapSites, resizeSites, windowSiteBudget(o.Window, logic))
	}

	// Score the sites not scored at this version yet, each into its own
	// entry, so workers never share one.
	e.stats.Phases++
	e.keepScores(ver, bound)
	todo := slices.Grow(e.todo[:0], len(swapSites)+len(resizeSites))
	e.scores = slices.Grow(e.scores, len(swapSites)+len(resizeSites))
	for i, sg := range swapSites {
		if e.newSlot(0, sg.Root.ID()) {
			todo = append(todo, i)
			e.stats.SwapSites++
		}
	}
	for i, g := range resizeSites {
		if e.newSlot(1, g.ID()) {
			todo = append(todo, len(swapSites)+i)
			e.stats.ResizeSites++
		}
	}
	e.todo = todo
	e.scoreAll(len(todo), func(k int, ws *workerState) {
		i := todo[k]
		if i < len(swapSites) {
			sg := swapSites[i]
			e.scores[e.slot[0][sg.Root.ID()]-1] = bestSwaps(tm, sg, ws)
			return
		}
		g := resizeSites[i-len(swapSites)]
		ws.resizeEvals += library.NumSizes - 1
		best := &e.scores[e.slot[1][g.ID()]-1]
		for obj, r := range ws.rs.BestResizes(tm, g) {
			best[obj] = siteMove{gain: r.Gain, a: int32(r.Size)}
		}
	})
	for _, ws := range e.state {
		e.stats.add(ws)
	}

	moves := make([]Move, 0, len(swapSites)+len(resizeSites))
	for _, sg := range swapSites {
		if m := e.scores[e.slot[0][sg.Root.ID()]-1][obj]; m.gain > eps {
			moves = append(moves, Move{Gain: m.gain, IsSwap: true,
				Swap: rewire.Swap{SG: sg, I: int(m.a), J: int(m.b), Inverting: m.inv}})
		}
	}
	for _, g := range resizeSites {
		if m := e.scores[e.slot[1][g.ID()]-1][obj]; m.gain > eps {
			moves = append(moves, Move{Gain: m.gain, Gate: g, Size: int(m.a)})
		}
	}
	sortMoves(moves)
	e.stats.Moves += len(moves)
	return moves
}

// keepScores readies the score buffers for a phase on the state timed at
// version ver: they keep their entries when the engine scored at ver
// last, and are emptied otherwise — always for a plain analysis
// (version 0), which identifies no state.
func (e *Engine) keepScores(ver uint64, bound int) {
	reset := ver == 0 || ver != e.scoredAt
	e.scoredAt = ver
	if reset {
		e.scores = e.scores[:0]
	}
	for k := range e.slot {
		if reset {
			clear(e.slot[k])
		}
		if n := len(e.slot[k]); bound > n {
			e.slot[k] = append(e.slot[k], make([]int32, bound-n)...)
		}
	}
}

// newSlot gives site id of the kind (0 swap, 1 resize) an entry and
// reports true, or reports false when the site is already scored.
func (e *Engine) newSlot(kind, id int) bool {
	if e.slot[kind][id] != 0 {
		return false
	}
	e.scores = append(e.scores, [2]siteMove{})
	e.slot[kind][id] = int32(len(e.scores))
	return true
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

// rankedSite is a windowed phase's site ranked by the worst slack a move
// there can touch.
type rankedSite struct {
	slack float64
	id    int
	swap  int // index+1 into the phase's swap sites, 0 for resize sites
	gate  *network.Gate
}

// cmpRanked orders sites by slack, then dense site ID, then swap before
// resize. It is a total order: swap is unique per swap site and 0 for
// resizes, so the budget selected never depends on the algorithm.
func cmpRanked(a, b rankedSite) int {
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
}

// budgetSites keeps the budget most-critical sites across both site
// kinds, ranking by the worst slack a move at the site can touch (read
// from the phase's slack pass) with the dense site ID as the
// deterministic tie-break. It selects the budget first and sorts only
// what it keeps, into the engine's reused output buffers.
func (e *Engine) budgetSites(swapSites []*supergate.Supergate, resizeSites []*network.Gate, budget int) ([]*supergate.Supergate, []*network.Gate) {
	total := len(swapSites) + len(resizeSites)
	if total <= budget {
		return swapSites, resizeSites
	}
	ranked := e.ranked[:0]
	for i, sg := range swapSites {
		s := math.MaxFloat64
		for _, g := range sg.Gates {
			if v := e.slack[g.ID()]; v < s {
				s = v
			}
		}
		for _, l := range sg.Leaves {
			if v := e.slack[l.Driver.ID()]; v < s {
				s = v
			}
		}
		ranked = append(ranked, rankedSite{slack: s, id: sg.Root.ID(), swap: i + 1})
	}
	for _, g := range resizeSites {
		s := e.slack[g.ID()]
		for _, d := range g.Fanins() {
			if v := e.slack[d.ID()]; v < s {
				s = v
			}
		}
		ranked = append(ranked, rankedSite{slack: s, id: g.ID(), gate: g})
	}
	selectSmallest(ranked, budget, cmpRanked)
	slices.SortFunc(ranked[:budget], cmpRanked)
	outSwaps, outResizes := e.budgetSwaps[:0], e.budgetResizes[:0]
	for _, r := range ranked[:budget] {
		if r.swap > 0 {
			outSwaps = append(outSwaps, swapSites[r.swap-1])
		} else {
			outResizes = append(outResizes, r.gate)
		}
	}
	clear(ranked) // drop the gate pointers; the engine outlives the phase
	e.ranked = ranked[:0]
	e.budgetSwaps, e.budgetResizes = outSwaps, outResizes
	return outSwaps, outResizes
}

// selectSmallest reorders s so that s[:k] holds its k smallest elements
// under cmp, a total order, in no particular order (quickselect with a
// median-of-three pivot, expected O(len(s))).
func selectSmallest[T any](s []T, k int, cmp func(a, b T) int) {
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if cmp(s[mid], s[lo]) < 0 {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if cmp(s[hi], s[lo]) < 0 {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if cmp(s[mid], s[hi]) < 0 {
			s[mid], s[hi] = s[hi], s[mid]
		}
		// s[hi] is now the median of the three; partition around it.
		p := s[hi]
		i := lo
		for j := lo; j < hi; j++ {
			if cmp(s[j], p) < 0 {
				s[i], s[j] = s[j], s[i]
				i++
			}
		}
		s[i], s[hi] = s[hi], s[i]
		switch {
		case i == k:
			return
		case i < k:
			lo = i + 1
		default:
			hi = i - 1
		}
	}
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

// bestSwaps returns a supergate's best-gaining swap under each objective,
// indexed by sizing.Objective (§5: "for each supergate, we find the best
// swap which maximizes the minimum slack in its neighborhood").
func bestSwaps(tm *sta.Timing, sg *supergate.Supergate, ws *workerState) [2]siteMove {
	var best [2]siteMove
	ws.swaps = rewire.EnumerateInto(ws.swaps[:0], sg)
	ws.swapEvals += len(ws.swaps)
	for _, s := range ws.swaps {
		for obj, gain := range EvalSwapScratch(tm, s, ws.sc) {
			if gain > best[obj].gain+eps {
				best[obj] = siteMove{gain: gain, a: int32(s.I), b: int32(s.J), inv: s.Inverting}
			}
		}
	}
	return best
}

// EvalSwapScratch locally evaluates the gain of a swap against tm under
// each objective, indexed by sizing.Objective (the two gains reduce the
// same slack vectors): the two affected drivers' nets are rebuilt with the exchanged sink,
// their arrivals recomputed, and the slacks of every gate they feed
// rescored with required times frozen. Inverting swaps add the inverter's
// cell delay at the receiving pin (the committed batch is still guarded by
// a full analysis). It is a pure read of tm through the arena sc, with
// zero steady-state allocations. The before/after neighborhoods are
// collected once into a deterministic slice (drivers first, then sinks in
// post-exchange net order), so the score — float summation order
// included — never depends on map iteration.
func EvalSwapScratch(tm *sta.Timing, s rewire.Swap, sc *sta.Scratch) [2]float64 {
	pa := s.SG.Leaves[s.I].Pin
	pb := s.SG.Leaves[s.J].Pin
	ka, kb := pa.Driver(), pb.Driver()
	if ka == kb {
		return [2]float64{}
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
	after, before := sizing.Scores(sc.Slacks, tm.Clock), sizing.Scores(sc.Before, tm.Clock)
	return [2]float64{after[0] - before[0], after[1] - before[1]}
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
