// Mutation events: every structural mutator of Network notifies registered
// observers with the set of gates it touched, so downstream analyses
// (incremental timing, and in the future congestion or power) track exactly
// what changed instead of guessing or re-walking the whole network.
//
// The notification contract is *local*: a mutator touches every gate whose
// locally cached timing inputs may have changed —
//
//   - the gate whose fanin connections changed (its in-pin arrivals moved);
//   - every driver whose fanout multiset changed (its net, and therefore
//     its load and sink wire delays, moved);
//   - on a cell-size or cell-type change, the gate itself (delay moved) and
//     its fanin drivers (the gate's input capacitance feeds their nets).
//
// Observers are responsible for propagating the consequences (an arrival
// change ripples forward; a required-time change ripples backward); the
// network only reports the epicenters. Direct writes to exported Gate
// fields (SizeIdx, Type, X/Y/Placed, PO) bypass the event layer — mutate
// through SetSize, SetGateType, and MarkOutput when observers must see the
// change. The one sanctioned direct-write pattern is a hypothetical
// evaluation that flips a field and restores it before the next observer
// synchronization point (sizing.Frame avoids even that, scoring a resize
// through a size override in its scratch). snapshot.go states what
// a direct write owes the snapshot capture.
package network

import (
	"fmt"
	"slices"

	"repro/internal/logic"
)

// Observer receives mutation notifications from a Network.
//
// GateTouched(g) means g's timing-relevant state may have changed: its
// fanin connections, its fanout multiset, its cell type or size, its PO
// flag, or (for a freshly created gate) its existence. GateRemoved(g) is
// called after g has been deleted; g's fanins were already reported as
// touched. Callbacks run synchronously inside the mutator, so they must
// not mutate the network themselves.
type Observer interface {
	GateTouched(g *Gate)
	GateRemoved(g *Gate)
}

// ResizeObserver is an optional extension of Observer for analyses that
// depend only on network *structure* (connectivity, gate types, PO flags)
// and not on cell sizes — supergate extraction being the canonical case.
// When a mutation changes nothing but a cell size (SetSize), observers
// implementing this interface receive GateResized for the affected gates
// instead of GateTouched, letting them skip invalidation entirely. Timing
// observers, whose delays do move with size, simply do not implement it
// and keep receiving GateTouched.
type ResizeObserver interface {
	Observer
	GateResized(g *Gate)
}

// BatchObserver is an optional extension of Observer for analyses whose
// per-event handlers are idempotent and commute across distinct gates —
// supergate cache invalidation being the canonical case. Inside a
// BeginBatch/EndBatch window the network buffers events instead of
// delivering them one at a time, and EndBatch hands each BatchObserver a
// single coalesced GateBatch call: touched gates deduplicated in
// first-touch order, then removals in removal order. A gate may appear in
// both slices (touched, then removed later in the window); since a dead
// gate is never touched again, applying all touches before all removals
// reproduces the interleaved per-gate event order. The slices are owned
// by the network and valid only for the duration of the call. Observers
// not implementing BatchObserver keep receiving synchronous per-event
// callbacks inside batch windows.
type BatchObserver interface {
	Observer
	GateBatch(touched, removed []*Gate)
}

// Observe registers o to receive mutation events until Unobserve.
func (n *Network) Observe(o Observer) {
	n.observers = append(n.observers, o)
	if bo, ok := o.(BatchObserver); ok {
		n.batchObs = append(n.batchObs, bo)
	}
}

// Unobserve removes a previously registered observer. Unknown observers
// are ignored. Unobserving inside a batch window forfeits the pending
// coalesced events for that observer. No slot past the slices' lengths
// keeps the observer, so a removed one (a closed supergate cache, say) is
// not held reachable by the network.
func (n *Network) Unobserve(o Observer) {
	if i := slices.Index(n.observers, o); i >= 0 {
		n.observers = slices.Delete(n.observers, i, i+1)
	}
	if bo, ok := o.(BatchObserver); ok {
		if i := slices.Index(n.batchObs, bo); i >= 0 {
			n.batchObs = slices.Delete(n.batchObs, i, i+1)
		}
	}
}

// BeginBatch opens a coalescing window: until the matching EndBatch,
// mutation events destined for BatchObservers are buffered and
// deduplicated instead of delivered per event. Windows nest; only the
// outermost EndBatch flushes. Observers that do not implement
// BatchObserver are unaffected.
func (n *Network) BeginBatch() {
	if n.batchEpoch == 0 {
		n.batchEpoch = 1 // stamp zero value must never equal a live epoch
	}
	n.batchDepth++
}

// EndBatch closes the innermost batch window. Closing the outermost
// window delivers one GateBatch call per BatchObserver with the
// coalesced events, then resets the buffer. It panics without a
// matching BeginBatch.
func (n *Network) EndBatch() {
	if n.batchDepth == 0 {
		panic("network: EndBatch without BeginBatch")
	}
	n.batchDepth--
	if n.batchDepth > 0 || (len(n.batchTouched) == 0 && len(n.batchRemoved) == 0) {
		return
	}
	for _, o := range n.batchObs {
		o.GateBatch(n.batchTouched, n.batchRemoved)
	}
	n.batchTouched = n.batchTouched[:0]
	n.batchRemoved = n.batchRemoved[:0]
	n.batchEpoch++
}

// batching reports whether events should be buffered for batch delivery.
func (n *Network) batching() bool {
	return n.batchDepth > 0 && len(n.batchObs) > 0
}

// bufferTouched records g in the open batch window, deduplicating via an
// epoch-stamped array indexed by dense gate ID.
func (n *Network) bufferTouched(g *Gate) {
	if g.id >= len(n.batchStamp) {
		// Amortized doubling: fresh gates arrive one id at a time inside
		// a batch, so growing to exactly nextID would reallocate per add.
		newLen := n.nextID
		if min := 2 * len(n.batchStamp); newLen < min {
			newLen = min
		}
		grown := make([]uint64, newLen)
		copy(grown, n.batchStamp)
		n.batchStamp = grown
	}
	if n.batchStamp[g.id] == n.batchEpoch {
		return
	}
	n.batchStamp[g.id] = n.batchEpoch
	n.batchTouched = append(n.batchTouched, g)
}

// touch notifies every observer that the given gates changed. Nil gates
// are skipped so call sites can pass optional participants unconditionally.
func (n *Network) touch(gs ...*Gate) {
	n.epoch++
	if len(n.observers) == 0 {
		return
	}
	batching := n.batching()
	if batching {
		for _, g := range gs {
			if g != nil {
				n.bufferTouched(g)
			}
		}
	}
	for _, o := range n.observers {
		if batching {
			if _, ok := o.(BatchObserver); ok {
				continue
			}
		}
		for _, g := range gs {
			if g != nil {
				o.GateTouched(g)
			}
		}
	}
}

// Touch reports through the event layer that g's externally pinned
// timing context changed — a boundary arrival, required time, or extra
// load that lives outside the network structure (sta.Bounds). The
// network itself is unmodified; observers see GateTouched and the
// mutation epoch advances so cached snapshots know timing moved.
func (n *Network) Touch(g *Gate) {
	n.changed(g)
	n.touch(g)
}

// notifyRemoved reports the deletion of g.
func (n *Network) notifyRemoved(g *Gate) {
	n.epoch++
	n.restructured()
	batching := n.batching()
	if batching {
		n.batchRemoved = append(n.batchRemoved, g)
	}
	for _, o := range n.observers {
		if batching {
			if _, ok := o.(BatchObserver); ok {
				continue
			}
		}
		o.GateRemoved(g)
	}
}

// SetSize changes the gate's library implementation through the event
// layer: the gate itself is touched (its cell delay changed) along with
// its fanin drivers (the gate's input capacitance loads their nets).
// Structure-only observers (ResizeObserver) see GateResized instead of
// GateTouched, since a size change never moves connectivity.
func (n *Network) SetSize(g *Gate, sizeIdx int) {
	if g.SizeIdx == sizeIdx {
		return
	}
	g.SizeIdx = sizeIdx
	n.epoch++
	n.changed(g)
	batching := n.batching()
	buffered := false
	for _, o := range n.observers {
		if ro, ok := o.(ResizeObserver); ok {
			ro.GateResized(g)
			for _, f := range g.fanins {
				ro.GateResized(f)
			}
			continue
		}
		if batching {
			if _, ok := o.(BatchObserver); ok {
				if !buffered {
					n.bufferTouched(g)
					for _, f := range g.fanins {
						n.bufferTouched(f)
					}
					buffered = true
				}
				continue
			}
		}
		o.GateTouched(g)
		for _, f := range g.fanins {
			o.GateTouched(f)
		}
	}
}

// SetGateType changes the gate's logic function in place, keeping its
// fanins — the move DeMorgan dualization makes (NAND<->NOR, AND<->OR,
// equal-arity implementations exist for both). It panics on an invalid
// type, the Input pseudo-type, or a fanin count the new type cannot
// accept. Observers see the gate and its fanin drivers touched (delay,
// unateness, and input capacitance all move with the type).
func (n *Network) SetGateType(g *Gate, t logic.GateType) {
	if g.Type == t {
		return
	}
	if !t.Valid() || t == logic.Input {
		panic("network: SetGateType to " + t.String())
	}
	if len(g.fanins) < t.MinFanin() {
		panic(fmt.Sprintf("network: SetGateType %s on %q with %d fanins, min %d",
			t, g.name, len(g.fanins), t.MinFanin()))
	}
	if t.IsUnary() && len(g.fanins) != 1 {
		panic(fmt.Sprintf("network: SetGateType unary %s on %q with %d fanins",
			t, g.name, len(g.fanins)))
	}
	g.Type = t
	n.changed(g)
	n.touch(g)
	n.touch(g.fanins...)
}
