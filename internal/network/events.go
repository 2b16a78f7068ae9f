// Mutation events: every structural mutator of Network reports the gates
// it touched to registered observers, one coalesced round at a time, so
// downstream analyses (incremental timing, supergate extraction) track
// exactly what changed instead of guessing or re-walking the whole
// network.
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

// Observer receives a Network's mutation events, one round at a time.
//
// A round is one mutator call outside a BeginBatch/EndBatch window, or
// everything up to the outermost EndBatch. GatesChanged reports it:
//
//   - touched holds the gates whose structure or timing-relevant state may
//     have changed: fanin connections, fanout multiset, cell type, PO
//     flag, name, or (for a freshly created gate) existence;
//   - resized holds the gates a cell-size change (SetSize) reached: the
//     resized gate and its fanin drivers, whose nets it loads;
//   - removed holds the gates deleted in the round, in removal order. A
//     removed gate's fanins are among the touched gates.
//
// touched and resized are deduplicated in first-touch order. A gate may
// sit in both, and a gate touched and then removed sits in touched and
// removed: a dead gate is never touched again, so handling all touches
// before all removals reproduces the per-gate order of events. The slices
// are owned by the network and valid only for the duration of the call.
// The call runs synchronously at the end of the round, so it must not
// mutate the network.
type Observer interface {
	GatesChanged(touched, resized, removed []*Gate)
}

// Observe registers o to receive mutation events until Unobserve.
func (n *Network) Observe(o Observer) { n.observers = append(n.observers, o) }

// Unobserve removes a previously registered observer. Unknown observers
// are ignored. Unobserving inside a batch window forfeits that observer's
// pending events. No slot past the slice's length keeps the observer, so
// a removed one (a closed supergate cache, say) is not held reachable by
// the network.
func (n *Network) Unobserve(o Observer) {
	if i := slices.Index(n.observers, o); i >= 0 {
		n.observers = slices.Delete(n.observers, i, i+1)
	}
}

// BeginBatch opens a window: until the matching EndBatch, every mutation
// joins one round. Windows nest; only the outermost EndBatch delivers.
func (n *Network) BeginBatch() { n.roundDepth++ }

// EndBatch closes the innermost window. Closing the outermost one
// delivers the round to every observer. It panics without a matching
// BeginBatch.
func (n *Network) EndBatch() {
	if n.roundDepth == 0 {
		panic("network: EndBatch without BeginBatch")
	}
	n.roundDepth--
	n.endRound()
}

// endRound ends a mutator call: outside every window it delivers the
// round, if anything joined it, and starts the next.
func (n *Network) endRound() {
	if n.roundDepth > 0 || len(n.roundTouched)+len(n.roundResized)+len(n.roundRemoved) == 0 {
		return
	}
	for _, o := range n.observers {
		o.GatesChanged(n.roundTouched, n.roundResized, n.roundRemoved)
	}
	n.roundTouched = n.roundTouched[:0]
	n.roundResized = n.roundResized[:0]
	n.roundRemoved = n.roundRemoved[:0]
	n.roundEpoch++
}

// Flags of a round stamp, below the round's epoch: which of the round's
// lists already hold the gate.
const (
	inTouched = 1 << iota
	inResized
	stampFlagBits = iota
)

// join adds g to the round's list that flag names, once per round. One
// stamp per gate, indexed by dense gate ID, serves both lists; a round's
// stamps are the epoch shifted past the flags, so advancing the epoch
// clears them all.
func (n *Network) join(g *Gate, flag uint64, list *[]*Gate) {
	if g.id >= len(n.roundStamp) {
		// Amortized doubling: fresh gates arrive one id at a time inside
		// a window, so growing to exactly nextID would reallocate per add.
		grown := make([]uint64, max(n.nextID, 2*len(n.roundStamp)))
		copy(grown, n.roundStamp)
		n.roundStamp = grown
	}
	s := n.roundStamp[g.id]
	if s>>stampFlagBits != n.roundEpoch {
		s = n.roundEpoch << stampFlagBits
	}
	if s&flag != 0 {
		return
	}
	n.roundStamp[g.id] = s | flag
	*list = append(*list, g)
}

// touch adds the given gates to the round's touched list. Nil gates are
// skipped so call sites can pass optional participants unconditionally.
// Without observers nothing is buffered.
func (n *Network) touch(gs ...*Gate) {
	n.epoch++
	if len(n.observers) == 0 {
		return
	}
	for _, g := range gs {
		if g != nil {
			n.join(g, inTouched, &n.roundTouched)
		}
	}
}

// Touch reports through the event layer that g's externally pinned
// timing context changed — a boundary arrival, required time, or extra
// load that lives outside the network structure (sta.Bounds). The
// network itself is unmodified; observers see g touched and the
// mutation epoch advances so cached snapshots know timing moved.
func (n *Network) Touch(g *Gate) {
	n.changed(g)
	n.touch(g)
	n.endRound()
}

// notifyRemoved adds the deleted g to the round's removals.
func (n *Network) notifyRemoved(g *Gate) {
	n.epoch++
	n.restructured()
	if len(n.observers) > 0 {
		n.roundRemoved = append(n.roundRemoved, g)
	}
}

// SetSize changes the gate's library implementation through the event
// layer. The gate (its cell delay changed) and its fanin drivers (the
// gate's input capacitance loads their nets) join the round's resized
// list, not its touched one: a size change never moves connectivity, so
// structure-only observers (supergate extraction) can skip it.
func (n *Network) SetSize(g *Gate, sizeIdx int) {
	if g.SizeIdx == sizeIdx {
		return
	}
	g.SizeIdx = sizeIdx
	n.epoch++
	n.changed(g)
	if len(n.observers) > 0 {
		n.join(g, inResized, &n.roundResized)
		for _, f := range g.fanins {
			n.join(f, inResized, &n.roundResized)
		}
	}
	n.endRound()
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
	n.endRound()
}
