// Incremental timing: a persistent timer that subscribes to network
// mutation events and re-propagates arrivals, required times, loads, and
// wire models only through the region a batch of mutations actually
// touched. Full Analyze remains the ground-truth oracle; Incremental is
// the optimizers' hot path, turning per-candidate timing from O(network)
// into O(affected region).
//
// # Invalidation rules
//
// The network reports every mutated gate through the Observer interface
// (see network/events.go): a gate is "dirty" when its fanin connections,
// fanout multiset, cell size or type, or PO flag changed, or when it was
// just created. On Update the timer:
//
//  1. Rebuilds the star net model and load of every dirty gate (their
//     fanout sets, sink pin capacitances, or sink placements moved).
//  2. Propagates arrivals forward from the dirty set in level order,
//     stopping wherever a recomputed arrival is bit-identical to the
//     cached one (reconvergence damping). Logic levels are repaired in the
//     same sweep.
//  3. Rescans the primary outputs for the critical delay and lateness.
//  4. Propagates required times backward from the dirty gates and their
//     fanin drivers (a dirty gate's cell delay feeds its fanins' required
//     times), again stopping on unchanged values. Required times depend
//     on arrivals nowhere, so this step can wait: UpdateArrivals runs
//     steps 1-3 and keeps the step-4 seeds pending, and the next Update
//     merges the seeds of every batch since into one backward sweep.
//     That sweep reaches every gate whose required time moved, because
//     each batch's changed nets and delays are among the merged seeds,
//     and a gate deleted meanwhile leaves them (GateRemoved). The values
//     are the unique fixpoint of the current network, so merging changes
//     no bit, only the work.
//
// The optimizers' timing guard reads only lateness, so it calls
// UpdateArrivals; most guarded batches are rejected and rolled back,
// which discards their pending backward work unrun, and an accepted
// batch's sweep runs with the next phase's Update, which scoring needs.
// A view with required times pending is stale for slacks: Version and
// Scratch.Begin panic on it and Checkpoint refuses it, so no scoring
// reads it, and each finished backward pass draws a fresh Version.
//
// The clock is frozen at construction (when built with clock <= 0 it locks
// to the initial critical delay, exactly like the optimizers do), so
// required times stay comparable across updates.
//
// Writes that bypass the event layer invalidate the timer silently. The
// two sanctioned patterns are: hypothetical evaluations that flip a field
// and restore it before the next Update, and placing a gate that is
// already dirty in the same batch (opt places the inverters a swap
// creates right after rewire.Apply reports them).
//
// When a batch dirties more than FullFraction of the network, the update
// falls back to a seeded full Analyze — at that size the from-scratch
// three-pass walk is cheaper than chasing the frontier. UpdateArrivals
// runs passes 1-2 of it and defers pass 3 like any backward work.
//
// # Checkpoint and rollback
//
// An optimizer rejects most of its batches. Checkpoint, taken right after
// an Update, copies everything an Update can change: the Timing's arrays,
// net arena and pin table, the levels and the PO list. Once the caller
// has undone a batch exactly — every fanin and fanout list back in its
// order, created gates removed — Rollback copies that state back and
// drops the dirty set, instead of re-timing the batch's region a second
// time. Fanout order matters: the star model sums over a driver's sinks
// in list order, so a permuted list would round differently in the last
// bits and the restored timing would not be the checkpoint's. Every view
// an Update produces carries a fresh Version, and a rollback restores the
// checkpoint's, so caches keyed on the version (opt's site scores) come
// back into force with it.
//
// All bookkeeping — the dirty set, logic levels, the level-ordered
// propagation queues, and the PO set — is held in dense gate-ID-indexed
// arrays with epoch stamps (no per-event map operations): the PR 6 profile
// showed the per-move notification cost and the per-update map churn were
// a measurable slice of a regioned run's cost.
//
// The cost per re-timed gate is what a wide update pays thousands of
// times, so both of its parts are O(1) amortized: the level queues keep
// one bucket per logic level, sorted by ID when first popped (see
// levelQueue); the forward sweep reads each fanin pin's wire delay from
// the Timing's pin table (PinWireDelay) and the backward sweep walks the
// gate's own cached net, so no sweep scans a driver's sink list. Neither
// changes a value or the order of work.
package sta

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/library"
	"repro/internal/network"
)

// DefaultFullFraction is the dirty-set fraction of the network above which
// Update abandons incremental propagation for a full Analyze. Incremental
// updates skip the expensive star-model rebuild for every clean gate, so
// they stay ahead of a full analysis well past half the network; the
// fallback only guards the pathological near-everything-moved batch.
const DefaultFullFraction = 0.5

// IncStats counts the work an Incremental timer performed, for the
// harness's full-vs-incremental reporting.
type IncStats struct {
	// FullAnalyses counts from-scratch analyses: the initial one at
	// construction plus every threshold fallback, an arrivals-only one
	// included even when a Rollback then dropped its deferred pass 3.
	FullAnalyses int
	// IncrementalUpdates counts Update and UpdateArrivals calls that ran
	// dirty-region propagation (calls with an empty dirty set are free and
	// not counted).
	IncrementalUpdates int
	// DirtyGates is the total dirty-set size consumed across incremental
	// updates; MaxDirty is the largest single batch.
	DirtyGates int
	MaxDirty   int
	// ArrivalRecomputes and RequiredRecomputes count gate evaluations
	// during propagation — the true measure of region size, since a change
	// ripples beyond the dirty epicenters. RequiredRecomputes covers only
	// the backward sweeps that ran — one per Update that found backward
	// work pending, however many arrivals-only batches merged into it;
	// work a Rollback discarded never runs and is not counted, and neither
	// is a full analysis's pass 3.
	ArrivalRecomputes  int
	RequiredRecomputes int
}

// AvgDirty returns the mean dirty-set size per incremental update.
func (s IncStats) AvgDirty() float64 {
	if s.IncrementalUpdates == 0 {
		return 0
	}
	return float64(s.DirtyGates) / float64(s.IncrementalUpdates)
}

// stampSet is a set of gates by dense ID: an epoch-stamped array for O(1)
// membership. Reset is O(1) (epoch bump); the array persists across
// batches. It holds no gate pointers.
type stampSet struct {
	stamp []uint64
	epoch uint64
}

func (s *stampSet) grow(bound int) {
	if bound > len(s.stamp) {
		s.stamp = append(s.stamp, make([]uint64, bound-len(s.stamp))...)
	}
}

func (s *stampSet) reset() { s.epoch++ }

// add inserts g, growing the stamp array if g is newer than the last
// grow, and reports whether g was absent.
func (s *stampSet) add(g *network.Gate) bool {
	id := g.ID()
	if id >= len(s.stamp) {
		s.grow(id + 1)
	}
	if s.stamp[id] == s.epoch {
		return false
	}
	s.stamp[id] = s.epoch
	return true
}

func (s *stampSet) has(g *network.Gate) bool {
	id := g.ID()
	return id < len(s.stamp) && s.stamp[id] == s.epoch
}

// remove drops g from the set.
func (s *stampSet) remove(g *network.Gate) {
	if id := g.ID(); id < len(s.stamp) && s.stamp[id] == s.epoch {
		s.stamp[id] = 0
	}
}

// gateSet is a stampSet plus an insertion-ordered slice for iteration.
// remove leaves the list entry, so iterators must check has().
type gateSet struct {
	stampSet
	list []*network.Gate
}

func (s *gateSet) reset() {
	s.stampSet.reset()
	s.list = s.list[:0]
}

// add inserts g.
func (s *gateSet) add(g *network.Gate) {
	if s.stampSet.add(g) {
		s.list = append(s.list, g)
	}
}

// dropGates empties the set and clears its list up to capacity.
func (s *gateSet) dropGates() {
	s.list = clearGates(s.list)
	s.reset()
}

// size returns the number of live members (list entries that still pass
// has()); removals are rare, so the common case is len(list).
func (s *gateSet) size() int {
	c := 0
	for _, g := range s.list {
		if s.has(g) {
			c++
		}
	}
	return c
}

// Incremental is a mutation-tracked timer over one network. Create it with
// NewIncremental, mutate the network through Network methods (which feed
// the event layer), and call Update to bring timing current. Close it when
// done so the network stops notifying it.
type Incremental struct {
	t      *Timing
	n      *network.Network
	lib    *library.Library
	clock  float64 // frozen PO required time, always > 0
	bounds *Bounds // pinned boundary conditions, nil for whole networks

	// FullFraction overrides the fallback threshold; settable before the
	// first Update after construction.
	FullFraction float64

	dirty  gateSet
	levels []int32 // logic level by dense gate ID

	// PO tracking: posList caches n.Outputs(); poMember mirrors each
	// gate's PO flag so a touch that flips it marks the list stale without
	// any per-event allocation.
	posList  []*network.Gate
	poMember []bool
	posStale bool

	// Propagation scratch, persistent across updates.
	fwdQ, bwdQ levelQueue
	pinArr     []Edge // per-pin arrivals of the gate being recomputed

	// The backward work UpdateArrivals defers to the next Update (see
	// the package comment). backSeeds and forced merge the seeds of every
	// arrivals-only batch since the last Update; reqFull marks a deferred
	// pass 3 of a fallback analysis, which re-times every required time
	// and so supersedes them. order is that fallback's topological order,
	// kept until a mutation arrives; nil otherwise.
	backSeeds gateSet
	forced    gateSet
	reqFull   bool
	order     []*network.Gate

	// touched records every gate whose arrival or required time was
	// recomputed by the most recent Update, deduplicated across the two
	// sweeps; lastFull marks updates that fell back to a full analysis
	// (where "touched" is the whole network). ECO sessions read these to
	// report how small the re-timed region actually was.
	touched  gateSet
	lastFull bool

	// ckpt is the state Rollback restores, saved by Checkpoint.
	ckpt checkpoint

	stats IncStats
}

// checkpoint is a saved copy of everything an Update can change: the
// Timing (its per-gate arrays, net arena and pin table), the logic
// levels and the PO list. Its Timing is borrowed from timingPool on the
// first Checkpoint and handed back by Release.
type checkpoint struct {
	t        *Timing
	levels   []int32
	posList  []*network.Gate
	poMember []bool
	posStale bool
}

// NewIncremental builds the timer with one full ground-truth Analyze and
// registers it as a network observer. A clock <= 0 freezes the initial
// critical delay as the required time, as the optimizers do.
func NewIncremental(n *network.Network, lib *library.Library, clock float64) *Incremental {
	return NewIncrementalBounded(n, lib, clock, nil)
}

// incPool recycles whole Incremental timers — their Timing arrays, level
// arrays, stamped sets, and propagation queues. Every optimizer run (and
// every round of opt.OptimizeRounds) builds one timer; recycling makes
// the steady-state cost of a new timer one full analysis, with no array
// warm-up.
var incPool = sync.Pool{New: func() interface{} { return new(Incremental) }}

// NewIncrementalBounded is NewIncremental under pinned boundary conditions
// (see Bounds): every analysis the timer runs — the construction seed,
// dirty-region updates, and threshold fallbacks — honors them.
func NewIncrementalBounded(n *network.Network, lib *library.Library, clock float64, b *Bounds) *Incremental {
	it := incPool.Get().(*Incremental)
	it.start(n, lib, clock, b)
	return it
}

// start points a fresh or recycled timer at n and seeds it.
func (it *Incremental) start(n *network.Network, lib *library.Library, clock float64, b *Bounds) {
	it.n = n
	it.lib = lib
	it.bounds = b
	it.FullFraction = DefaultFullFraction
	it.stats = IncStats{}
	if it.t == nil {
		it.t = timingPool.Get().(*Timing)
	}
	it.t.n, it.t.lib, it.t.bounds = n, lib, b
	it.fwdQ.init(it, false)
	it.bwdQ.init(it, true)
	it.full(clock)
	it.finishRequired()
	n.Observe(it)
}

// full runs passes 1-2 of the ground-truth analysis under clock (the
// construction seed, or a threshold fallback under the frozen clock),
// reusing the Timing's arrays in place, and rebuilds the levels and the
// PO list. Pass 3 is left to finishRequired, with the order it walks.
func (it *Incremental) full(clock float64) {
	// Levels and the analysis passes are all value-level dataflow, so the
	// cheap any-valid-order walk serves; see TopoOrderFast.
	order := it.n.TopoOrderFast()
	it.t.analyzeArrivals(clock, order)
	it.clock = it.t.Clock
	it.rebuildLevels(order)
	it.rebuildPOs()
	bound := it.n.IDBound()
	it.dirty.reset()
	it.dirty.grow(bound)
	// Pre-size the propagation scratch too, so the first updates don't
	// regrow each stamped set by appending. Pass 3 re-times every
	// required time, so no seed survives it.
	it.backSeeds.reset()
	it.backSeeds.grow(bound)
	it.forced.reset()
	it.forced.grow(bound)
	it.reqFull, it.order = true, order
	it.fwdQ.qset.grow(bound)
	it.bwdQ.qset.grow(bound)
	it.touched.reset()
	it.touched.grow(bound)
	it.lastFull = true
	it.stats.FullAnalyses++
}

// rebuildLevels recomputes every live gate's logic level from a
// topological order into the dense array.
func (it *Incremental) rebuildLevels(order []*network.Gate) {
	bound := it.n.IDBound()
	if cap(it.levels) < bound {
		it.levels = make([]int32, bound)
	}
	it.levels = it.levels[:bound]
	for i := range it.levels {
		it.levels[i] = 0
	}
	var depth int32
	for _, g := range order {
		var lv int32
		for _, f := range g.Fanins() {
			if l := it.levels[f.ID()] + 1; l > lv {
				lv = l
			}
		}
		it.levels[g.ID()] = lv
		depth = max(depth, lv)
	}
	// One bucket per level up front, so the sweeps never grow them one
	// level at a time.
	it.fwdQ.grow(int(depth) + 1)
	it.bwdQ.grow(int(depth) + 1)
}

// levelOf reads a gate's cached logic level (0 for gates created after the
// last repair; the propagation sweep fixes them up).
func (it *Incremental) levelOf(g *network.Gate) int32 {
	if id := g.ID(); id < len(it.levels) {
		return it.levels[id]
	}
	return 0
}

func (it *Incremental) setLevel(g *network.Gate, lv int32) {
	id := g.ID()
	if id >= len(it.levels) {
		it.levels = append(it.levels, make([]int32, id+1-len(it.levels))...)
	}
	it.levels[id] = lv
}

func (it *Incremental) rebuildPOs() {
	it.posList = it.n.Outputs()
	bound := it.n.IDBound()
	if cap(it.poMember) < bound {
		it.poMember = make([]bool, bound)
	}
	it.poMember = it.poMember[:bound]
	for i := range it.poMember {
		it.poMember[i] = false
	}
	for _, po := range it.posList {
		it.poMember[po.ID()] = true
	}
	it.posStale = false
}

// Close unregisters the timer from the network. The last Timing stays
// readable but no longer tracks mutations.
func (it *Incremental) Close() { it.n.Unobserve(it) }

// Release is Close plus recycling: the timer — including its Timing view —
// goes back to the pool for the next NewIncremental. Neither the timer nor
// any Timing pointer it handed out may be used afterwards. The optimizers
// release their private timers; hold Close for timers whose view outlives
// them. A released timer keeps its arrays but no gate pointer (see
// dropGates), so the pool never keeps a finished network reachable.
func (it *Incremental) Release() {
	it.n.Unobserve(it)
	if it.ckpt.t != nil {
		ReleaseTiming(it.ckpt.t)
		it.ckpt.t = nil
	}
	it.dropGates()
	incPool.Put(it)
}

// Checkpoint saves the timer's state for Rollback. Take it right after
// an Update, with no mutation and no backward work pending (an
// UpdateArrivals leaves some); it panics otherwise. A later Checkpoint
// replaces it.
//
// The copy is O(network), a few memory copies of the per-gate arrays,
// where re-timing a rolled-back batch costs its whole dirty region
// twice. The checkpoint's Timing comes from the pool AnalyzeReleased
// draws on and goes back to it with Release, so an optimizer's final
// analysis after Release reuses it instead of allocating another.
func (it *Incremental) Checkpoint() {
	if len(it.dirty.list) != 0 || it.t.reqStale {
		panic("sta: Checkpoint with mutations or required times pending; call Update first")
	}
	c := &it.ckpt
	if c.t == nil {
		c.t = timingPool.Get().(*Timing)
	}
	c.t.copyFrom(it.t)
	c.levels = append(c.levels[:0], it.levels...)
	c.posList = append(clearGates(c.posList), it.posList...)
	c.poMember = append(c.poMember[:0], it.poMember...)
	c.posStale = it.posStale
}

// Rollback restores the state saved by the last Checkpoint and drops
// every pending mutation and all backward work pending from
// UpdateArrivals, returning the restored view. The caller must
// first have returned the network to its checkpointed state — every
// gate's fanins, fanout lists in their order, types, sizes and PO flags
// — and removed the gates it created since (an exactly undone batch);
// the timer then reads bit for bit what it read at the checkpoint, which
// is what an Update after the undo would recompute. The checkpoint stays
// valid for another Rollback.
func (it *Incremental) Rollback() *Timing {
	c := &it.ckpt
	if c.t == nil {
		panic("sta: Rollback without Checkpoint")
	}
	it.t.copyFrom(c.t)
	it.levels = append(it.levels[:0], c.levels...)
	it.posList = append(clearGates(it.posList), c.posList...)
	it.poMember = append(it.poMember[:0], c.poMember...)
	it.posStale = c.posStale
	it.dirty.reset()
	it.backSeeds.reset()
	it.forced.reset()
	it.reqFull, it.order = false, nil
	it.touched.reset()
	it.lastFull = false
	return it.t
}

// dropGates clears every reference the timer keeps into the network it
// timed: the network itself, its Timing's (see Timing.dropGates), and
// every gate-pointer backing array up to its capacity. Truncating with
// [:0] would keep the slots past the length pointing at gates. It costs
// O(capacity), once per run.
func (it *Incremental) dropGates() {
	it.n, it.lib, it.bounds = nil, nil, nil
	it.t.dropGates()
	it.posList = nil
	it.reqFull, it.order = false, nil
	it.ckpt.posList = clearGates(it.ckpt.posList)
	it.dirty.dropGates()
	it.backSeeds.dropGates()
	it.forced.dropGates()
	it.touched.dropGates()
	it.fwdQ.dropGates()
	it.bwdQ.dropGates()
}

// Timing returns the current timing view, valid as of the last Update (or
// construction), or with required times pending as of the last
// UpdateArrivals. The view is updated in place, so always read through
// the pointer returned by the most recent update.
func (it *Incremental) Timing() *Timing { return it.t }

// Stats returns the accumulated work counters.
func (it *Incremental) Stats() IncStats { return it.stats }

// LastTouched returns the gates whose arrival or required time was
// recomputed by the most recent Update (or construction), deduplicated;
// after an UpdateArrivals, the gates whose arrival was. After a full
// analysis — construction, a FullFraction fallback — it
// returns nil and LastUpdateFull reports true; use LastTouchedCount for
// a size that covers both cases. The slice is owned by the timer and
// valid only until the next Update; callers must not mutate it.
func (it *Incremental) LastTouched() []*network.Gate {
	if it.lastFull {
		return nil
	}
	return it.touched.list
}

// LastTouchedCount returns how many gates the most recent Update
// re-timed: the LastTouched set size, or the whole network after a full
// analysis.
func (it *Incremental) LastTouchedCount() int {
	if it.lastFull {
		return it.n.NumGates()
	}
	return len(it.touched.list)
}

// LastUpdateFull reports whether the most recent Update (or the
// construction seed) ran a full analysis instead of dirty-region
// propagation.
func (it *Incremental) LastUpdateFull() bool { return it.lastFull }

// GateTouched records a mutated gate; part of network.Observer. PO-flag
// changes only ever arrive through evented mutators (MarkOutput,
// TransferFanouts), so the PO list's staleness can be detected here.
func (it *Incremental) GateTouched(g *network.Gate) {
	it.dirty.add(g)
	id := g.ID()
	if id >= len(it.poMember) {
		it.poMember = append(it.poMember, make([]bool, id+1-len(it.poMember))...)
	}
	if it.poMember[id] != g.PO {
		it.poMember[id] = g.PO
		it.posStale = true
	}
}

// GateRemoved drops a deleted gate from every structure, the backward
// seeds pending from UpdateArrivals included; part of network.Observer.
// The gate's former fanins were reported touched by the removal itself.
func (it *Incremental) GateRemoved(g *network.Gate) {
	it.dirty.remove(g)
	it.backSeeds.remove(g)
	it.forced.remove(g)
	it.order = nil
	if id := g.ID(); id < len(it.poMember) && it.poMember[id] {
		it.poMember[id] = false
		it.posStale = true
	}
	it.t.forget(g)
}

// Update brings the timing current with the network, required times
// included, and returns the view: UpdateArrivals, then the backward work
// it and every UpdateArrivals since the last Update deferred. With
// nothing pending it is free; with a small dirty set it propagates
// through the affected region only; past the FullFraction threshold it
// falls back to a full analysis.
func (it *Incremental) Update() *Timing {
	it.UpdateArrivals()
	it.finishRequired()
	return it.t
}

// UpdateArrivals brings arrivals, loads, nets, levels, CriticalDelay and
// Lateness current with the network — everything the optimizers' timing
// guard reads — and defers the backward (required-time) work to the next
// Update, merging its seeds with those of earlier arrivals-only batches;
// a fallback analysis defers its pass 3 the same way. Until that Update
// the view's required times and slacks are stale: Version and
// Scratch.Begin panic on it, and Checkpoint refuses it. A Rollback
// discards the deferred work with the batch, so a rejected batch never
// pays for its backward sweep.
func (it *Incremental) UpdateArrivals() *Timing {
	if len(it.dirty.list) == 0 {
		it.touched.reset()
		it.lastFull = false
		return it.t
	}
	it.order = nil // the network moved since the last fallback's order
	pending := it.dirty.size()
	if pending == 0 {
		it.dirty.reset()
		it.touched.reset()
		it.lastFull = false
		return it.t
	}
	if float64(pending) > it.FullFraction*float64(it.n.NumGates()) {
		it.full(it.clock)
		return it.t
	}
	it.incremental(pending)
	return it.t
}

// finishRequired runs the deferred backward work, if any — a fallback's
// pass 3, or one backward sweep from the merged seeds — and gives the
// now fully timed view a fresh version.
func (it *Incremental) finishRequired() {
	if !it.t.reqStale {
		return
	}
	if it.posStale {
		it.rebuildPOs()
	}
	if it.reqFull {
		order := it.order
		if order == nil {
			order = it.n.TopoOrderFast()
		}
		it.t.analyzeRequired(order, it.posList)
		it.lastFull = true
	} else {
		it.propagateRequired()
	}
	it.backSeeds.reset()
	it.forced.reset()
	it.reqFull, it.order = false, nil
	it.t.reqStale = false
	it.t.version = versions.Add(1)
}

func (it *Incremental) incremental(pending int) {
	it.touched.reset()
	it.lastFull = false
	it.stats.IncrementalUpdates++
	it.stats.DirtyGates += pending
	if pending > it.stats.MaxDirty {
		it.stats.MaxDirty = pending
	}
	it.t.grow(it.n.IDBound())
	it.dirty.grow(it.n.IDBound())

	// Backward seeds: every dirty gate (its sink set or wire model moved)
	// plus its fanin drivers (the dirty gate's cell delay and load feed its
	// fanins' required times). The dirty snapshot is kept separately: a
	// dirty gate must push its fanins even when its own required time lands
	// unchanged, because its delay still moved. Both sets are collected
	// before the forward pass consumes the dirty set, and join the seeds
	// still pending from earlier arrivals-only batches; a pending pass 3
	// needs none.
	if !it.reqFull {
		for _, g := range it.dirty.list {
			if !it.dirty.has(g) {
				continue // removed after being touched
			}
			it.forced.add(g)
			it.backSeeds.add(g)
			for _, f := range g.Fanins() {
				it.backSeeds.add(f)
			}
		}
	}

	it.propagateArrivals()
	it.dirty.reset()
	it.t.reqStale = true

	// Rescan the tracked primary outputs for the critical delay and the
	// boundary lateness — O(#POs), not O(network). The lateness term is
	// poLatenessOne, shared with Analyze's scan.
	if it.posStale {
		it.rebuildPOs()
	}
	cd := 0.0
	lat := math.Inf(-1)
	for _, po := range it.posList {
		if m := it.t.Arrival(po).Max(); m > cd {
			cd = m
		}
		if l := poLatenessOne(it.t, po); l > lat {
			lat = l
		}
	}
	if math.IsInf(lat, -1) {
		lat = 0
	}
	it.t.CriticalDelay = cd
	it.t.Lateness = lat
}

// propagateArrivals runs the forward sweep: dirty gates rebuild their net
// model and load, every reached gate recomputes its level and arrival, and
// fanouts are enqueued when anything observable changed. Processing is
// level-ordered; a gate popped ahead of a still-pending fanin (possible
// only while levels are being repaired) is simply re-enqueued when that
// fanin's value settles, so the sweep converges on exact values.
func (it *Incremental) propagateArrivals() {
	q := &it.fwdQ
	q.reset()
	for _, g := range it.dirty.list {
		if it.dirty.has(g) {
			q.push(g)
		}
	}
	pinArr := it.pinArr
	for q.Len() > 0 {
		g := q.pop()
		it.touched.add(g)
		var lv int32
		for _, f := range g.Fanins() {
			if l := it.levelOf(f) + 1; l > lv {
				lv = l
			}
		}
		levelChanged := it.levelOf(g) != lv
		it.setLevel(g, lv)

		isDirty := it.dirty.has(g)
		if isDirty {
			it.dirty.remove(g)
			it.t.load[g.ID()] = it.t.setNet(g) + it.t.padLoad(g)
		}

		arr := it.bounds.arrivalOf(g)
		if !g.IsInput() {
			pinArr = pinArr[:0]
			for j, d := range g.Fanins() {
				w := it.t.PinWireDelay(d, g, j)
				pinArr = append(pinArr, it.t.Arrival(d).add(w))
			}
			arr = it.t.GateOutput(g, pinArr, it.t.Load(g))
		}
		it.stats.ArrivalRecomputes++
		old := it.t.arrival[g.ID()]
		it.t.arrival[g.ID()] = arr
		if isDirty || levelChanged || old != arr {
			for _, s := range g.Fanouts() {
				q.push(s)
			}
		}
	}
	it.pinArr = pinArr
}

// propagateRequired runs the backward sweep from the live seeds, recomputing
// each reached gate's required time from its sinks' (already current)
// required times, delays, and wire models, and enqueuing fanins whenever
// the value moved — or unconditionally for gates in forced, whose own
// delay changed.
//
// A gate's sinks are read from its own cached net, which is current: the
// forward sweep rebuilt every dirty gate's net, and a clean gate's sink
// multiset has not moved since its net was built. A sink fed through
// several pins appears once per pin, each with its own delay; since the
// arc equation subtracts the delay and rounding is monotone, the minimum
// over the entries is bit-identical to taking the worst delay over the
// duplicates, as WireDelay does.
func (it *Incremental) propagateRequired() {
	q := &it.bwdQ
	q.reset()
	for _, g := range it.backSeeds.list {
		if it.backSeeds.has(g) { // not removed since it was seeded
			q.push(g)
		}
	}
	for q.Len() > 0 {
		g := q.pop()
		it.touched.add(g)
		req := Edge{inf, inf}
		if g.PO {
			req = it.bounds.requiredOf(g, it.t.Clock)
		}
		sinks, delays := it.t.net(g.ID())
		for i, s := range sinks {
			cand := requiredCandidate(it.t, s, delays[i])
			if cand.Rise < req.Rise {
				req.Rise = cand.Rise
			}
			if cand.Fall < req.Fall {
				req.Fall = cand.Fall
			}
		}
		it.stats.RequiredRecomputes++
		old := it.t.required[g.ID()]
		it.t.required[g.ID()] = req
		if it.forced.has(g) || old != req {
			for _, f := range g.Fanins() {
				q.push(f)
			}
		}
	}
}

// requiredCandidate is the required time sink s imposes on a fanin driver
// reached through wire delay w — the same arc equation Analyze's pass 3
// applies.
func requiredCandidate(t *Timing, s *network.Gate, w float64) Edge {
	cell := t.cellOf(s)
	dRise, dFall := cell.Delay(t.Load(s))
	reqS := t.Required(s)
	switch edgeBehavior(s.Type) {
	case inverting:
		return Edge{Rise: reqS.Fall - dFall - w, Fall: reqS.Rise - dRise - w}
	case nonInverting:
		return Edge{Rise: reqS.Rise - dRise - w, Fall: reqS.Fall - dFall - w}
	default: // nonUnate
		m := reqS.Rise - dRise
		if v := reqS.Fall - dFall; v < m {
			m = v
		}
		m -= w
		return Edge{m, m}
	}
}

// levelQueue is a deduplicating priority queue of gates ordered by logic
// level — ascending for the forward sweep, descending for the backward
// sweep — with ties broken on ascending dense gate ID, so the pop order
// (and with it the exact propagation work) does not depend on the order
// the dirty set seeded the queue in.
//
// It keeps one bucket per level. A push appends to its level's bucket;
// a bucket is sorted by ID when it is first popped, and a push into a
// bucket that is already sorted (being drained, or left part-drained when
// the cursor moved back) is inserted in ID order. The cursor is the level
// being drained; a push ahead of it in pop order — below it ascending,
// above it descending, which happens while the forward sweep repairs
// levels — moves it back. A bucket that empties is reset, so it refills
// unsorted, and a bitmap of non-empty buckets lets the cursor skip empty
// levels a word at a time. The pop sequence is exactly that of a (level,
// ID) heap: bucketing by the level at push is exact because a queued
// gate's level never changes while it waits (the forward sweep rewrites
// only the level of the gate it just popped, and re-pushes the fanouts
// afterwards; the backward sweep writes none). The dedup set holds each
// gate at most once. Buckets, like the epoch-stamped dedup set, persist
// across updates, so a warm sweep allocates nothing.
type levelQueue struct {
	it      *Incremental
	desc    bool
	qset    stampSet      // queued gates
	buckets []levelBucket // by logic level
	full    []uint64      // bit l set when buckets[l] is non-empty
	cur     int           // the level being drained
	n       int           // queued gates
}

// levelBucket holds the queued gates of one level in gates[head:].
type levelBucket struct {
	gates  []*network.Gate
	head   int
	sorted bool // gates[head:] ascending by ID
}

func (q *levelQueue) init(it *Incremental, desc bool) {
	q.it = it
	q.desc = desc
}

// reset empties the queue. Draining leaves every bucket empty, so only
// an abandoned sweep has buckets to clear.
func (q *levelQueue) reset() {
	if q.n != 0 {
		for i := range q.buckets {
			q.buckets[i] = levelBucket{gates: q.buckets[i].gates[:0]}
		}
		clear(q.full)
		q.n = 0
	}
	q.qset.reset()
}

// dropGates empties the queue and clears every bucket up to capacity;
// the dedup set holds no gate pointers.
func (q *levelQueue) dropGates() {
	for i := range q.buckets {
		q.buckets[i] = levelBucket{gates: clearGates(q.buckets[i].gates)}
	}
	clear(q.full)
	q.n = 0
	q.qset.reset()
}

func (q *levelQueue) Len() int { return q.n }

func (q *levelQueue) push(g *network.Gate) {
	if !q.qset.add(g) {
		return
	}
	lv := int(q.it.levelOf(g))
	if lv >= len(q.buckets) {
		q.grow(max(lv+1, 2*len(q.buckets)))
	}
	ahead := lv < q.cur
	if q.desc {
		ahead = lv > q.cur
	}
	if q.n == 0 || ahead {
		q.cur = lv
	}
	q.n++
	b := &q.buckets[lv]
	q.full[lv/64] |= 1 << (lv % 64)
	if len(b.gates) == cap(b.gates) {
		// Move to twice the room and clear the slots left behind: they
		// may be the shared arena's, which would otherwise keep this
		// network's gates reachable after the timer is recycled.
		old := b.gates
		b.gates = append(make([]*network.Gate, 0, 2*cap(old)), old...)
		clear(old)
	}
	if !b.sorted {
		b.gates = append(b.gates, g)
		return
	}
	i, _ := slices.BinarySearchFunc(b.gates[b.head:], g, byID)
	b.gates = slices.Insert(b.gates, b.head+i, g)
}

func byID(x, y *network.Gate) int { return x.ID() - y.ID() }

// bucketCap is the capacity a new bucket starts with, carved from one
// shared array so a deep network's first sweep does not grow every bucket
// from nothing.
const bucketCap = 4

// grow adds empty buckets up to level levels-1, if missing.
func (q *levelQueue) grow(levels int) {
	k := levels - len(q.buckets)
	if k <= 0 {
		return
	}
	arena := make([]*network.Gate, k*bucketCap)
	for i := 0; i < k; i++ {
		q.buckets = append(q.buckets, levelBucket{gates: arena[i*bucketCap : i*bucketCap : (i+1)*bucketCap]})
	}
	q.full = append(q.full, make([]uint64, levels/64+1-len(q.full))...)
}

func (q *levelQueue) pop() *network.Gate {
	if q.full[q.cur/64]&(1<<(q.cur%64)) == 0 {
		q.advance()
	}
	b := &q.buckets[q.cur]
	if !b.sorted {
		slices.SortFunc(b.gates, byID)
		b.sorted = true
	}
	g := b.gates[b.head]
	b.head++
	if b.head == len(b.gates) {
		*b = levelBucket{gates: b.gates[:0]}
		q.full[q.cur/64] &^= 1 << (q.cur % 64)
	}
	q.n--
	q.qset.remove(g)
	return g
}

// advance moves the cursor from an empty bucket to the next non-empty one
// in pop order; the queue must not be empty.
func (q *levelQueue) advance() {
	w := q.cur / 64
	if q.desc {
		m := q.full[w] & (1<<(q.cur%64) - 1)
		for m == 0 {
			w--
			m = q.full[w]
		}
		q.cur = w*64 + 63 - bits.LeadingZeros64(m)
		return
	}
	m := q.full[w] &^ (1<<(q.cur%64+1) - 1)
	for m == 0 {
		w++
		m = q.full[w]
	}
	q.cur = w*64 + bits.TrailingZeros64(m)
}
