// Epoch-stamped snapshot views: the one-writer/many-reader concurrency
// story for live circuits (DESIGN.md §5d). Every event-layer mutation
// advances the network's epoch counter; Snapshot() captures the current
// structure into an immutable, value-typed view stamped with that epoch.
// Readers pin a *Snapshot and read it freely — it shares no Gate
// pointers with the live network, so a writer mutating concurrently can
// never race a pinned reader. The writer-side cost is one capture per
// epoch: Snapshot() memoizes the last view (the same stamp-against-an-
// epoch trick the batch event buffer and sta's gateSet use, lifted from
// per-gate dedup to whole-network identity), so readers arriving between
// mutations share one allocation.
//
// A capture costs what changed since the last one. Value-only mutations
// (SetSize, SetGateType, Touch, MarkOutput, Rename, and the PO move in
// TransferFanouts) leave the topological order and every fanin list as
// they were, so the network records the gates they changed and the next
// Snapshot() copies the previous view's gate slice, shares its fanin
// slices, and rewrites only those gates. Structural mutations (adding or
// removing a gate, rewiring a fanin) mark the network for a full
// recapture, as does a dirty list grown past a fixed fraction of the
// gates. Nothing is recorded before the first Snapshot(), so networks
// that are never snapshotted pay one branch per mutation.
//
// Patching relies on every gate left off the dirty list still holding
// the values of the last capture. A direct write to an exported Gate
// field therefore needs one of three things: a structural mutation
// since the last capture (fields of a gate just added), a restore before
// the next capture (hypothetical evaluation), or a call to Invalidate.
//
// Snapshot() itself must run on the writer side (or under external
// synchronization with the writer) — it walks live Gate pointers and
// updates the memo. The returned *Snapshot is immutable and safe to
// share across any number of goroutines.
package network

import "repro/internal/logic"

// SnapGate is one gate of a Snapshot: a value copy of the timing- and
// structure-relevant Gate fields, with fanins encoded as indices into
// the snapshot's own gate slice (topological order) instead of pointers.
type SnapGate struct {
	Name    string
	Type    logic.GateType
	PO      bool
	SizeIdx int
	X, Y    float64
	Placed  bool

	// Fanins holds in-pin drivers in pin order as indices into the
	// owning Snapshot's Gates; every index is less than the gate's own
	// position (the snapshot is stored fanin-first).
	Fanins []int32
}

// Snapshot is an immutable view of a Network at one mutation epoch.
type Snapshot struct {
	name  string
	epoch uint64
	gates []SnapGate
}

// snapDirtyDiv bounds the dirty list at 1/snapDirtyDiv of the captured
// gates: past that, patching a copy saves little over a full capture.
const snapDirtyDiv = 8

// Epoch returns the network's mutation epoch. It advances on every
// event-layer mutation (structural edits, SetSize/SetGateType, Touch)
// and on Invalidate; other direct writes to exported Gate fields bypass
// it, exactly as they bypass observers. Two equal epochs on the same
// network mean no event-layer mutation happened in between.
func (n *Network) Epoch() uint64 { return n.epoch }

// Invalidate reports that direct writes changed exported Gate fields
// outside the event layer — placement assigning every X/Y is the case.
// The epoch advances and the next Snapshot recaptures in full. Observers
// are not notified.
func (n *Network) Invalidate() {
	n.epoch++
	n.restructured()
}

// changed records that a value field of g changed through the event
// layer, for the next Snapshot to patch.
func (n *Network) changed(g *Gate) {
	if n.snapCache == nil || n.snapRecapture {
		return
	}
	if len(n.snapDirty) >= len(n.snapCache.gates)/snapDirtyDiv {
		n.restructured()
		return
	}
	n.snapDirty = append(n.snapDirty, g)
}

// restructured records a mutation that may have moved the topological
// order or a fanin list: the next Snapshot recaptures in full.
func (n *Network) restructured() {
	n.snapRecapture = true
	n.snapDirty = n.snapDirty[:0]
}

// Snapshot captures the live gates into an immutable view stamped with
// the current epoch. Calls at an unchanged epoch return the identical
// *Snapshot (pointer-equal), so readers polling an idle network share
// one capture. Must be called on the writer side; see the package note
// at the top of this file.
func (n *Network) Snapshot() *Snapshot {
	prev := n.snapCache
	if prev != nil && n.snapEpoch == n.epoch {
		return prev
	}
	var gates []SnapGate
	if prev == nil || n.snapRecapture {
		gates = n.capture()
	} else {
		gates = make([]SnapGate, len(prev.gates))
		copy(gates, prev.gates)
		for _, g := range n.snapDirty {
			i := n.snapPos[g.id]
			gates[i] = snapGate(g, gates[i].Fanins)
		}
	}
	n.snapDirty, n.snapRecapture = n.snapDirty[:0], false
	s := &Snapshot{name: n.name, epoch: n.epoch, gates: gates}
	n.snapCache, n.snapEpoch = s, n.epoch
	return s
}

// capture builds the gate slice from scratch in TopoOrder order and
// refreshes the id→position index patching uses. All fanin lists share
// one backing array.
func (n *Network) capture() []SnapGate {
	order := n.TopoOrder()
	if cap(n.snapPos) < n.nextID {
		n.snapPos = make([]int32, n.nextID)
	}
	n.snapPos = n.snapPos[:n.nextID]
	pins := 0
	for i, g := range order {
		n.snapPos[g.id] = int32(i)
		pins += len(g.fanins)
	}
	fans := make([]int32, 0, pins)
	gates := make([]SnapGate, len(order))
	for i, g := range order {
		var fi []int32
		if len(g.fanins) > 0 {
			base := len(fans)
			for _, f := range g.fanins {
				fans = append(fans, n.snapPos[f.id])
			}
			fi = fans[base:len(fans):len(fans)]
		}
		gates[i] = snapGate(g, fi)
	}
	return gates
}

// snapGate copies g's value fields next to the given fanin indices.
func snapGate(g *Gate, fanins []int32) SnapGate {
	return SnapGate{
		Name: g.name, Type: g.Type, PO: g.PO, SizeIdx: g.SizeIdx,
		X: g.X, Y: g.Y, Placed: g.Placed, Fanins: fanins,
	}
}

// Name returns the name of the network the snapshot was taken from.
func (s *Snapshot) Name() string { return s.name }

// Epoch returns the mutation epoch the snapshot was taken at.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumGates returns the number of gates in the snapshot.
func (s *Snapshot) NumGates() int { return len(s.gates) }

// Gate returns the i'th gate of the snapshot, in topological order.
// The returned value's Fanins slice is owned by the snapshot; callers
// must not mutate it.
func (s *Snapshot) Gate(i int) SnapGate { return s.gates[i] }

// Stale reports whether n has seen an event-layer mutation since the
// snapshot was taken. It is only meaningful for the network the
// snapshot came from.
func (s *Snapshot) Stale(n *Network) bool { return s.epoch != n.epoch }

// Net materializes the snapshot into a fresh, independent Network. The
// construction is deterministic — gates are created in the snapshot's
// stored topological order (TopoOrder order, the same order Clone
// uses), so two materializations of one snapshot are structurally
// byte-identical. Names, types, PO flags, sizes, and placement are all
// preserved.
func (s *Snapshot) Net() *Network {
	c := New(s.name)
	gs := make([]*Gate, len(s.gates))
	for i := range s.gates {
		sg := &s.gates[i]
		var g *Gate
		if sg.Type == logic.Input {
			g = c.AddInput(sg.Name)
		} else {
			fanins := make([]*Gate, len(sg.Fanins))
			for j, fi := range sg.Fanins {
				fanins[j] = gs[fi]
			}
			g = c.AddGate(sg.Name, sg.Type, fanins...)
		}
		g.PO = sg.PO
		g.SizeIdx = sg.SizeIdx
		g.X, g.Y, g.Placed = sg.X, sg.Y, sg.Placed
		gs[i] = g
	}
	return c
}
