// Incremental extraction: a Cache keeps one Extraction current across
// network mutations by subscribing to the mutation-event layer, the same
// subscription the incremental timer uses. The optimizer re-extracts up
// to ~16 times per run (once per phase, per strategy), but each committed
// batch touches a handful of gates — paying a full O(network) Extract for
// every phase is the candidate-generation bottleneck once timing is
// incremental. The Cache instead invalidates exactly the supergates whose
// cover or leaf cones a batch touched and re-extracts only those regions.
//
// # Invalidation rules
//
// A supergate's structure is a function of its covered gates' types,
// fanin connections, and fanout-branch counts, plus — at the boundary —
// each leaf driver's absorbability (type and fanout-branch count). The
// event layer reports exactly the gates whose local structure moved
// (events.go), so on flush, for every touched live gate g the cache
// invalidates:
//
//   - the supergate covering g (any interior change re-shapes the cover);
//   - every supergate with g as a *leaf driver* (tracked in a reverse
//     index): g's absorbability may have changed, letting the consumer's
//     backward implication now continue into g — or forcing it to stop.
//
// Pure cell-size changes arrive as GateResized (the Cache implements
// network.ResizeObserver) and invalidate nothing.
//
// Uncovered gates are then re-extracted in consumer-before-driver order:
// a pooled gate is "ready" to root a new supergate once it is a fanout
// stem (or PO), or its single consumer is covered by a supergate that
// already decided to stop at it. When a re-extraction grows into a gate
// still covered by another supergate — possible when a changed interior
// chain now implies through a previously blocking boundary — that
// supergate is cascade-invalidated and its remainder re-pooled. The peel
// terminates because the topmost pooled gate is always ready.
//
// A batch that is undone exactly leaves nothing to re-extract: Rollback
// drops its touches, so a rejected optimizer batch costs the cache
// nothing.
//
// Like the incremental timer, the Cache falls back to a full Extract when
// a batch dirties more than FullFraction of the network, and counts its
// work in CacheStats for the harness's reporting.
package supergate

import (
	"slices"
	"sort"

	"repro/internal/network"
)

// DefaultCacheFullFraction is the dirty fraction of the network above
// which a flush abandons incremental re-extraction for a full Extract.
const DefaultCacheFullFraction = 0.25

// CacheStats counts the work a Cache performed.
type CacheStats struct {
	// FullExtractions counts from-scratch extractions: the initial one at
	// construction plus every threshold or safety fallback.
	FullExtractions int
	// IncrementalFlushes counts Extraction calls that ran incremental
	// re-extraction (calls with nothing pending are free and not counted).
	IncrementalFlushes int
	// Invalidated and Reextracted count supergates dropped and rebuilt
	// across incremental flushes.
	Invalidated int
	Reextracted int
}

// Cache keeps a supergate Extraction current over one mutating network.
// Create it with NewCache, mutate through Network methods, and call
// Extraction to get the up-to-date decomposition. Close it when done so
// the network stops notifying it. Not safe for concurrent use.
type Cache struct {
	n   *network.Network
	ext *Extraction

	// FullFraction overrides the fallback threshold; settable any time.
	FullFraction float64

	// leafConsumers holds, by gate ID, the supergates that stop at the
	// gate as a leaf driver — the reverse index absorbability
	// invalidation needs. A list holds each supergate once, in no
	// meaningful order: invalidations commute.
	leafConsumers [][]*Supergate

	dirty map[*network.Gate]struct{} // touched live gates, pending flush
	pool  map[*network.Gate]struct{} // uncovered live gates, pending re-extraction
	stale bool                       // Supergates/Redundancies views need rebuilding

	ready []*network.Gate // flush scratch
	stats CacheStats
}

// NewCache builds the cache with one full Extract and registers it as a
// network observer.
func NewCache(n *network.Network) *Cache {
	c := &Cache{
		n:            n,
		FullFraction: DefaultCacheFullFraction,
		dirty:        make(map[*network.Gate]struct{}),
		pool:         make(map[*network.Gate]struct{}),
	}
	c.rebuild()
	n.Observe(c)
	return c
}

// Close unregisters the cache from the network. The last Extraction stays
// readable but no longer tracks mutations.
func (c *Cache) Close() { c.n.Unobserve(c) }

// Stats returns the accumulated work counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// GateTouched records a structurally mutated gate; part of
// network.Observer.
func (c *Cache) GateTouched(g *network.Gate) { c.dirty[g] = struct{}{} }

// GateBatch implements network.BatchObserver: one coalesced round of
// mutations arrives as a single call instead of per-event callbacks.
// Touches are applied before removals, which reproduces the interleaved
// per-gate event order (a dead gate is never touched again, so per gate
// the removal is always the last event), and the cache's handlers are
// idempotent and commute across distinct gates, so the final dirty/pool
// state is identical to per-event delivery.
func (c *Cache) GateBatch(touched, removed []*network.Gate) {
	for _, g := range touched {
		c.dirty[g] = struct{}{}
	}
	for _, g := range removed {
		c.GateRemoved(g)
	}
}

// GateResized implements network.ResizeObserver: cell sizes never affect
// the decomposition, so pure resizes invalidate nothing.
func (c *Cache) GateResized(g *network.Gate) {}

// GateRemoved drops a deleted gate; part of network.Observer. Its former
// supergate (and any supergate it fed as a leaf driver) is invalidated;
// its fanins were already reported as touched by the removal.
func (c *Cache) GateRemoved(g *network.Gate) {
	if sg := c.ext.Of(g); sg != nil {
		c.invalidate(sg)
	}
	c.invalidateConsumers(g)
	c.ext.uncover(g)
	delete(c.dirty, g)
	delete(c.pool, g)
}

// Extraction flushes pending invalidations and returns the current
// decomposition. The returned value is updated in place by later flushes;
// read it before the next batch of mutations.
func (c *Cache) Extraction() *Extraction {
	if len(c.dirty) > 0 || len(c.pool) > 0 || c.stale {
		c.flush()
	}
	return c.ext
}

// Rollback drops the touches recorded since the last flush, for a caller
// that has exactly undone every mutation since then (rewire.Apply's undos
// in reverse order). The extraction is then still current: it reads only
// fanin lists, gate types and fanout counts, which the undo restored, and
// the only gates the undo removed are inverters created after the flush,
// which no supergate covers or stops at. Re-extracting the touched
// supergates would rebuild them as they are.
func (c *Cache) Rollback() { clear(c.dirty) }

// invalidate drops sg from the decomposition, re-pooling its covered
// gates and unhooking its leaf-consumer back references.
func (c *Cache) invalidate(sg *Supergate) {
	if sg.invalid {
		return
	}
	sg.invalid = true
	c.stale = true
	c.stats.Invalidated++
	for _, l := range sg.Leaves {
		c.unhookConsumer(l.Driver, sg)
	}
	for _, g := range sg.Gates {
		if c.ext.Of(g) == sg {
			c.ext.uncover(g)
			c.pool[g] = struct{}{}
		}
	}
}

// invalidateConsumers invalidates every supergate that stops at g as a
// leaf driver. Each invalidation unhooks itself from its drivers' lists,
// so g's list is detached while they run and handed back empty.
func (c *Cache) invalidateConsumers(g *network.Gate) {
	id := g.ID()
	if id >= len(c.leafConsumers) {
		return
	}
	cons := c.leafConsumers[id]
	c.leafConsumers[id] = nil
	for _, sg := range cons {
		c.invalidate(sg)
	}
	clear(cons)
	c.leafConsumers[id] = cons[:0]
}

// flush applies pending invalidations and re-extracts the uncovered
// region.
func (c *Cache) flush() {
	if float64(len(c.dirty)+len(c.pool)) > c.FullFraction*float64(c.n.NumGates()) {
		c.rebuild()
		return
	}
	for g := range c.dirty {
		if sg := c.ext.Of(g); sg != nil {
			c.invalidate(sg)
		} else if !g.IsInput() {
			// A gate with no covering supergate is either freshly created
			// or already pooled; both re-extract below.
			c.pool[g] = struct{}{}
		}
		c.invalidateConsumers(g)
	}
	clear(c.dirty)

	// Ready peel: repeatedly extract from pool gates whose root status is
	// already decided. The topmost pooled gate (no pooled gate on its
	// consumer chain) is always ready, so every round makes progress; the
	// guard below is a pure safety valve.
	for rounds := 0; len(c.pool) > 0; rounds++ {
		if rounds > c.n.NumGates() {
			c.rebuild()
			return
		}
		c.ready = c.ready[:0]
		for g := range c.pool {
			if c.rootDecided(g) {
				c.ready = append(c.ready, g)
			}
		}
		if len(c.ready) == 0 {
			// Unreachable on a DAG; fall back rather than spin.
			c.rebuild()
			return
		}
		// Sort for a deterministic Supergates order (and therefore
		// deterministic Redundancies order) across runs.
		sort.Slice(c.ready, func(i, j int) bool { return c.ready[i].ID() < c.ready[j].ID() })
		for _, g := range c.ready {
			if _, pending := c.pool[g]; !pending {
				continue // covered by an earlier extraction this round
			}
			c.extractFrom(g)
		}
	}
	c.stats.IncrementalFlushes++
	c.rebuildViews()
}

// rootDecided reports whether pooled gate g is certain to root its own
// supergate: it is a fanout stem or PO (never absorbable), or its single
// consumer is covered by a valid supergate — one whose traversal already
// stopped at g, since any change to that decision's inputs would have
// invalidated the consumer.
func (c *Cache) rootDecided(g *network.Gate) bool {
	if g.FanoutBranches() != 1 || len(g.Fanouts()) == 0 {
		// Fanout stem, or a PO driving no sink pin (branch count 1 but
		// nothing to absorb it) — always a root.
		return true
	}
	_, pending := c.pool[g.Fanouts()[0]]
	return !pending
}

// extractFrom roots a new supergate at g, registering its cover and
// cascade-invalidating any supergate the traversal grew into.
func (c *Cache) extractFrom(root *network.Gate) {
	sg := c.ext.extractOne(root)
	c.stats.Reextracted++
	for _, g := range sg.Gates {
		if old := c.ext.Of(g); old != nil && old != sg {
			// The new traversal implied through a boundary the old
			// decomposition stopped at; the overlapped supergate is stale.
			c.invalidate(old)
		}
		c.ext.cover(g, sg)
		delete(c.pool, g)
	}
	for _, l := range sg.Leaves {
		c.addLeafConsumer(l.Driver, sg)
	}
	c.ext.Supergates = append(c.ext.Supergates, sg)
	c.ext.nonTrivialOK = false
	c.stale = true
}

// addLeafConsumer records sg as a consumer of leaf driver d. Callers add
// all of one supergate's leaves in a row, so a driver feeding several of
// its leaves finds sg already last in its list.
func (c *Cache) addLeafConsumer(d *network.Gate, sg *Supergate) {
	id := d.ID()
	if id >= len(c.leafConsumers) {
		c.leafConsumers = append(c.leafConsumers, make([][]*Supergate, id+1-len(c.leafConsumers))...)
	}
	cons := c.leafConsumers[id]
	if k := len(cons); k > 0 && cons[k-1] == sg {
		return
	}
	c.leafConsumers[id] = append(cons, sg)
}

// unhookConsumer removes sg from leaf driver d's consumer list.
func (c *Cache) unhookConsumer(d *network.Gate, sg *Supergate) {
	id := d.ID()
	if id >= len(c.leafConsumers) {
		return
	}
	cons := c.leafConsumers[id]
	if i := slices.Index(cons, sg); i >= 0 {
		last := len(cons) - 1
		cons[i] = cons[last]
		cons[last] = nil
		c.leafConsumers[id] = cons[:last]
	}
}

// rebuildViews compacts the Supergates slice (dropping invalidated
// entries) and reassembles the flat Redundancies view.
func (c *Cache) rebuildViews() {
	sgs := c.ext.Supergates[:0]
	for _, sg := range c.ext.Supergates {
		if !sg.invalid {
			sgs = append(sgs, sg)
		}
	}
	c.ext.Supergates = sgs
	c.ext.nonTrivialOK = false
	c.ext.Redundancies = c.ext.Redundancies[:0]
	for _, sg := range sgs {
		c.ext.Redundancies = append(c.ext.Redundancies, sg.reds...)
	}
	c.stale = false
}

// rebuild falls back to a from-scratch extraction, copying into the
// existing Extraction struct so pointers handed out by Extraction()
// keep seeing the current view.
func (c *Cache) rebuild() {
	if c.ext == nil {
		c.ext = Extract(c.n)
	} else {
		*c.ext = *Extract(c.n)
	}
	c.leafConsumers = make([][]*Supergate, c.n.IDBound())
	for _, sg := range c.ext.Supergates {
		for _, l := range sg.Leaves {
			c.addLeafConsumer(l.Driver, sg)
		}
	}
	clear(c.dirty)
	clear(c.pool)
	c.stale = false
	c.stats.FullExtractions++
}
