// Package network implements the mapped Boolean network the paper operates
// on (§2): a directed acyclic graph whose vertices are library gates and
// whose edges are interconnects. A gate has one out-pin and an ordered list
// of in-pins; we do not distinguish between a gate and its out-pin, exactly
// as the paper does.
//
// The structure is deliberately mutable — rewiring swaps in-pin drivers and
// inserts or removes inverters in place — and keeps fanout lists consistent
// under every mutation so that supergate extraction (which keys on fanout
// counts) is always correct.
package network

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/logic"
)

// Gate is a vertex of the network: a primary input (Type == logic.Input) or
// a library gate instance. The zero value is not usable; create gates
// through Network methods.
type Gate struct {
	id   int
	name string

	// Type is the logic function of the gate.
	Type logic.GateType

	fanins  []*Gate
	fanouts []*Gate // with multiplicity; len == total sink in-pins driven

	// PO marks the gate's out-pin as a primary output of the network.
	PO bool

	// SizeIdx selects one of the library implementations of the cell
	// (0 = smallest). Managed by techmap and sizing.
	SizeIdx int

	// X, Y are placement coordinates in micrometres; valid after placement.
	X, Y float64

	// Placed reports whether X, Y hold a real location.
	Placed bool
}

// ID returns the gate's stable, network-unique id.
func (g *Gate) ID() int { return g.id }

// Name returns the gate's name.
func (g *Gate) Name() string { return g.name }

// NumFanins returns the number of in-pins.
func (g *Gate) NumFanins() int { return len(g.fanins) }

// Fanin returns the driver of in-pin i.
func (g *Gate) Fanin(i int) *Gate { return g.fanins[i] }

// Fanins returns the in-pin drivers in pin order. The slice is shared with
// the gate; callers must not mutate it.
func (g *Gate) Fanins() []*Gate { return g.fanins }

// NumFanouts returns the number of sink in-pins this gate drives, counting
// a sink gate once per in-pin it connects to. A primary output adds no
// fanout entry; use FanoutBranches to include it.
func (g *Gate) NumFanouts() int { return len(g.fanouts) }

// Fanouts returns the sink gates with multiplicity. The slice is shared
// with the gate; callers must not mutate it.
func (g *Gate) Fanouts() []*Gate { return g.fanouts }

// FanoutBranches returns the number of distinct implication branches out of
// this gate: sink in-pins plus one if the gate is a primary output. This is
// the count supergate extraction uses to decide whether a gate is a fanout
// stem.
func (g *Gate) FanoutBranches() int {
	n := len(g.fanouts)
	if g.PO {
		n++
	}
	return n
}

// IsInput reports whether the gate is a primary input.
func (g *Gate) IsInput() bool { return g.Type == logic.Input }

// FaninIndexOf returns the first in-pin index of g driven by d, or -1.
func (g *Gate) FaninIndexOf(d *Gate) int {
	for i, f := range g.fanins {
		if f == d {
			return i
		}
	}
	return -1
}

func (g *Gate) String() string {
	return fmt.Sprintf("%s(%s#%d)", g.name, g.Type, g.id)
}

// Pin identifies one in-pin of a gate: in-pin Index of Gate.
type Pin struct {
	Gate  *Gate
	Index int
}

// Driver returns the gate driving the pin.
func (p Pin) Driver() *Gate { return p.Gate.fanins[p.Index] }

// Valid reports whether p names an existing in-pin.
func (p Pin) Valid() bool {
	return p.Gate != nil && p.Index >= 0 && p.Index < len(p.Gate.fanins)
}

func (p Pin) String() string {
	if p.Gate == nil {
		return "<nil pin>"
	}
	return fmt.Sprintf("%s.in%d", p.Gate.name, p.Index)
}

// Network is a mapped Boolean network.
type Network struct {
	name    string
	gates   []*Gate // creation order; may contain nils after removal
	byName  map[string]*Gate
	nextID  int
	removed int

	// observers receive mutation events; see events.go.
	observers []Observer

	// epoch counts mutations: every event-layer mutation advances it, so
	// readers can detect change without diffing (snapshot.go). snapCache
	// memoizes the last Snapshot taken, keyed by snapEpoch, so repeated
	// reads of an unchanged network pin the same immutable view. snapPos
	// maps gate id to its position in that capture; snapDirty lists the
	// gates whose value fields changed since, unless snapRecapture marks
	// a structural mutation that makes the next capture a full one.
	epoch         uint64
	snapCache     *Snapshot
	snapEpoch     uint64
	snapPos       []int32
	snapDirty     []*Gate
	snapRecapture bool

	// The open round (events.go). roundDepth counts open BeginBatch
	// windows. The round's touched and resized gates are deduplicated
	// through one stamp per gate, indexed by dense ID: the round's epoch
	// above two flag bits, one per list, so advancing roundEpoch after a
	// delivery clears every stamp at once. Without observers nothing is
	// buffered.
	roundDepth   int
	roundEpoch   uint64
	roundStamp   []uint64
	roundTouched []*Gate
	roundResized []*Gate
	roundRemoved []*Gate
}

// New creates an empty network with the given name.
func New(name string) *Network {
	return &Network{name: name, byName: make(map[string]*Gate)}
}

// Name returns the network name.
func (n *Network) Name() string { return n.name }

// NumGates returns the number of live gates, including primary inputs.
func (n *Network) NumGates() int { return len(n.gates) - n.removed }

// IDBound returns an exclusive upper bound on the IDs of all gates ever
// created in this network: every live gate g satisfies g.ID() < IDBound().
// IDs are dense (assigned in creation order, never reused), so scoring
// arenas index gate-keyed scratch arrays by ID and size them with this
// bound instead of hashing gate pointers.
func (n *Network) IDBound() int { return n.nextID }

// NumLogicGates returns the number of live non-input gates.
func (n *Network) NumLogicGates() int {
	c := 0
	for _, g := range n.gates {
		if g != nil && !g.IsInput() {
			c++
		}
	}
	return c
}

// Gates calls fn for every live gate in creation order.
func (n *Network) Gates(fn func(*Gate)) {
	for _, g := range n.gates {
		if g != nil {
			fn(g)
		}
	}
}

// GateSlice returns the live gates in creation order as a fresh slice.
func (n *Network) GateSlice() []*Gate {
	out := make([]*Gate, 0, n.NumGates())
	for _, g := range n.gates {
		if g != nil {
			out = append(out, g)
		}
	}
	return out
}

// Inputs returns the primary inputs in creation order.
func (n *Network) Inputs() []*Gate {
	var out []*Gate
	for _, g := range n.gates {
		if g != nil && g.IsInput() {
			out = append(out, g)
		}
	}
	return out
}

// Outputs returns the gates marked as primary outputs in creation order.
func (n *Network) Outputs() []*Gate {
	var out []*Gate
	for _, g := range n.gates {
		if g != nil && g.PO {
			out = append(out, g)
		}
	}
	return out
}

// FindGate returns the gate with the given name, or nil.
func (n *Network) FindGate(name string) *Gate { return n.byName[name] }

// Live reports whether g is a gate of n that has not been removed.
// Gates are appended in id order and slots are never compacted or
// reordered, so a live gate always sits at n.gates[g.id].
func (n *Network) Live(g *Gate) bool { return g.id < len(n.gates) && n.gates[g.id] == g }

// AddInput creates a primary input.
func (n *Network) AddInput(name string) *Gate {
	return n.add(name, logic.Input, nil)
}

// AddGate creates a gate of the given type driven by fanins, in pin order.
// It panics on a name collision, a nil or removed fanin, or a fanin count
// below the type's minimum, since these are programming errors in circuit
// construction code.
func (n *Network) AddGate(name string, t logic.GateType, fanins ...*Gate) *Gate {
	if !t.Valid() || t == logic.Input {
		panic("network: AddGate with type " + t.String())
	}
	if len(fanins) < t.MinFanin() {
		panic(fmt.Sprintf("network: %s gate %q needs >= %d fanins, got %d",
			t, name, t.MinFanin(), len(fanins)))
	}
	if t.IsUnary() && len(fanins) != 1 {
		panic(fmt.Sprintf("network: unary gate %q with %d fanins", name, len(fanins)))
	}
	return n.add(name, t, fanins)
}

func (n *Network) add(name string, t logic.GateType, fanins []*Gate) *Gate {
	if _, dup := n.byName[name]; dup {
		panic("network: duplicate gate name " + name)
	}
	g := &Gate{id: n.nextID, name: name, Type: t}
	n.nextID++
	for _, f := range fanins {
		if f == nil {
			panic("network: nil fanin for " + name)
		}
		g.fanins = append(g.fanins, f)
		f.fanouts = append(f.fanouts, g)
	}
	n.gates = append(n.gates, g)
	n.byName[name] = g
	n.restructured()
	n.touch(g)
	n.touch(fanins...)
	n.endRound()
	return g
}

// MarkOutput flags g as a primary output.
func (n *Network) MarkOutput(g *Gate) {
	if g.PO {
		return
	}
	g.PO = true
	n.changed(g)
	n.touch(g)
	n.endRound()
}

// FreshName returns a gate name based on prefix that is unused in the
// network.
func (n *Network) FreshName(prefix string) string {
	buf := make([]byte, 0, len(prefix)+8)
	buf = append(buf, prefix...)
	buf = append(buf, '_')
	base := len(buf)
	for i := 0; ; i++ {
		name := string(strconv.AppendInt(buf[:base], int64(i), 10))
		if _, used := n.byName[name]; !used {
			return name
		}
	}
}

// ReplaceFanin redirects in-pin (g, idx) from its current driver to nd,
// keeping fanout lists consistent.
func (n *Network) ReplaceFanin(g *Gate, idx int, nd *Gate) {
	n.ReplaceFaninAt(g, idx, nd)
}

// ReplaceFaninAt is ReplaceFanin returning the position g's entry held in
// the old driver's fanout list, or -1 when nd already drove the pin. The
// old driver's list is compacted by moving its last entry into that
// position; UndoReplaceFanin takes the position to reverse exactly that.
func (n *Network) ReplaceFaninAt(g *Gate, idx int, nd *Gate) int {
	old := g.fanins[idx]
	if old == nd {
		return -1
	}
	pos := removeOneFanout(old, g)
	g.fanins[idx] = nd
	nd.fanouts = append(nd.fanouts, g)
	n.restructured()
	n.touch(old, nd, g)
	n.endRound()
	return pos
}

// UndoReplaceFanin reconnects in-pin (g, idx) to old, reversing the
// ReplaceFaninAt that returned pos. Undone in LIFO order, it is an exact
// inverse: both drivers' fanout lists get back their former order, not
// just their former multisets, so star-model sums over them round the
// same way again. If the pin's current driver no longer ends its fanout
// list with g (the pin moved again and stayed moved), it falls back to a
// plain ReplaceFanin.
func (n *Network) UndoReplaceFanin(g *Gate, idx int, old *Gate, pos int) {
	nd := g.fanins[idx]
	last := len(nd.fanouts) - 1
	if pos < 0 || nd == old || last < 0 || nd.fanouts[last] != g || pos > len(old.fanouts) {
		n.ReplaceFanin(g, idx, old)
		return
	}
	nd.fanouts[last] = nil
	nd.fanouts = nd.fanouts[:last]
	g.fanins[idx] = old
	if pos == len(old.fanouts) {
		old.fanouts = append(old.fanouts, g)
	} else {
		old.fanouts = append(old.fanouts, old.fanouts[pos])
		old.fanouts[pos] = g
	}
	n.restructured()
	n.touch(nd, old, g)
	n.endRound()
}

// removeOneFanout deletes one occurrence of sink from from's fanout list
// by moving the last entry into its slot, and returns the slot.
func removeOneFanout(from, sink *Gate) int {
	for i, s := range from.fanouts {
		if s == sink {
			last := len(from.fanouts) - 1
			from.fanouts[i] = from.fanouts[last]
			from.fanouts[last] = nil
			from.fanouts = from.fanouts[:last]
			return i
		}
	}
	panic(fmt.Sprintf("network: %s is not a fanout of %s", sink, from))
}

// SetFanins replaces the entire fanin list of g, keeping fanout lists
// consistent. Used by technology mapping when restructuring wide gates.
func (n *Network) SetFanins(g *Gate, fanins []*Gate) {
	n.restructured()
	for _, old := range g.fanins {
		removeOneFanout(old, g)
		n.touch(old)
	}
	g.fanins = append(g.fanins[:0], fanins...)
	for _, f := range fanins {
		if f == nil {
			panic("network: nil fanin in SetFanins for " + g.name)
		}
		f.fanouts = append(f.fanouts, g)
		n.touch(f)
	}
	n.touch(g)
	n.endRound()
}

// Rename changes a gate's name. It panics if the new name is taken.
func (n *Network) Rename(g *Gate, name string) {
	if g.name == name {
		return
	}
	if _, dup := n.byName[name]; dup {
		panic("network: rename to duplicate name " + name)
	}
	delete(n.byName, g.name)
	g.name = name
	n.byName[name] = g
	n.changed(g)
	n.touch(g)
	n.endRound()
}

// TransferFanouts redirects every sink in-pin currently driven by old to be
// driven by nw instead, except in-pins of nw itself (so old can keep
// driving the gate that replaces it). The PO flag moves from old to nw.
func (n *Network) TransferFanouts(old, nw *Gate) {
	n.BeginBatch()
	defer n.EndBatch()
	sinks := append([]*Gate(nil), old.fanouts...)
	for _, s := range sinks {
		if s == nw {
			continue
		}
		for i, f := range s.fanins {
			if f == old {
				n.ReplaceFanin(s, i, nw)
			}
		}
	}
	if old.PO {
		old.PO = false
		nw.PO = true
		n.changed(old)
		n.changed(nw)
		n.touch(old, nw)
	}
}

// SwapPins exchanges the drivers of two in-pins. This is the primitive
// non-inverting swap of §4: after the call, a's pin sees b's old driver and
// vice versa.
func (n *Network) SwapPins(a, b Pin) {
	da, db := a.Driver(), b.Driver()
	n.BeginBatch()
	defer n.EndBatch()
	n.ReplaceFanin(a.Gate, a.Index, db)
	n.ReplaceFanin(b.Gate, b.Index, da)
}

// InsertInverter places a fresh INV between the driver of pin p and p, and
// returns the new inverter.
func (n *Network) InsertInverter(p Pin) *Gate {
	d := p.Driver()
	n.BeginBatch()
	defer n.EndBatch()
	inv := n.AddGate(n.FreshName(d.name+"_inv"), logic.Inv, d)
	n.ReplaceFanin(p.Gate, p.Index, inv)
	return inv
}

// RemoveGate deletes a gate that has no fanouts and is not a primary
// output, detaching it from its fanins. It panics otherwise.
func (n *Network) RemoveGate(g *Gate) {
	if len(g.fanouts) != 0 || g.PO {
		panic("network: RemoveGate on live gate " + g.String())
	}
	for _, f := range g.fanins {
		removeOneFanout(f, g)
		n.touch(f)
	}
	g.fanins = nil
	if !n.Live(g) {
		panic("network: RemoveGate on gate from another network " + g.String())
	}
	n.gates[g.id] = nil
	n.removed++
	delete(n.byName, g.name)
	n.notifyRemoved(g)
	n.endRound()
}

// Sweep repeatedly removes non-PO gates with no fanouts (dead logic left by
// rewiring) and returns how many gates were removed. Primary inputs are
// never removed.
func (n *Network) Sweep() int {
	total := 0
	n.BeginBatch()
	defer n.EndBatch()
	for {
		removedThisPass := 0
		for _, g := range n.gates {
			if g == nil || g.PO || g.IsInput() || len(g.fanouts) != 0 {
				continue
			}
			n.RemoveGate(g)
			removedThisPass++
		}
		total += removedThisPass
		if removedThisPass == 0 {
			return total
		}
	}
}

// TopoOrder returns the live gates in topological order (fanins before
// fanouts). Ties between ready gates break by creation order (a min-heap
// on gate ids), so the result is deterministic, and the whole order is
// produced in O(E + V log V). It panics if the network contains a cycle;
// use Validate to check first.
func (n *Network) TopoOrder() []*Gate {
	order := make([]*Gate, 0, n.NumGates())
	pending := make([]int32, n.nextID) // unplaced fanin occurrences, by gate id
	var ready GateQueue
	for _, g := range n.gates {
		if g == nil {
			continue
		}
		if len(g.fanins) == 0 {
			ready.Push(uint64(g.id), g)
		} else {
			pending[g.id] = int32(len(g.fanins))
		}
	}
	for ready.Len() > 0 {
		g := ready.Pop()
		order = append(order, g)
		// A sink's pending count drops once per fanin occurrence,
		// including multi-edges.
		for _, s := range g.fanouts {
			pending[s.id]--
			if pending[s.id] == 0 {
				ready.Push(uint64(s.id), s)
			}
		}
	}
	if len(order) != n.NumGates() {
		panic("network: cycle detected in TopoOrder")
	}
	return order
}

// TopoOrderFast returns the live gates in some valid topological order,
// preferring the creation order when it is already topological — true
// for freshly extracted, generated, or cloned networks — verified in
// O(V+E) with a dense seen-array instead of TopoOrder's heap. When
// rewiring has made the creation order non-topological (an inserted
// inverter is enough) it falls back to a plain Kahn walk, still O(V+E)
// and heap-free: the order slice itself is the FIFO of ready gates. The
// result is deterministic for a given construction history, but it is
// NOT TopoOrder's id-tie-break order; use it only where any valid order
// serves (per-gate dataflow like timing passes), not where the specific
// sequence feeds downstream identity (Clone, Stitch). It panics if the
// network contains a cycle.
func (n *Network) TopoOrderFast() []*Gate {
	order := make([]*Gate, 0, n.NumGates())
	seen := make([]bool, n.nextID)
	for _, g := range n.gates {
		if g == nil {
			continue
		}
		for _, f := range g.fanins {
			if !seen[f.id] {
				return n.kahnOrder(order[:0])
			}
		}
		seen[g.id] = true
		order = append(order, g)
	}
	return order
}

// kahnOrder appends the live gates to order (empty, with room for all of
// them) in Kahn's order: sources in creation order, then each gate once
// its last fanin occurrence is placed, reading order as the queue.
func (n *Network) kahnOrder(order []*Gate) []*Gate {
	pending := make([]int32, n.nextID) // unplaced fanin occurrences, by gate id
	for _, g := range n.gates {
		if g == nil {
			continue
		}
		if len(g.fanins) == 0 {
			order = append(order, g)
		} else {
			pending[g.id] = int32(len(g.fanins))
		}
	}
	for i := 0; i < len(order); i++ {
		for _, s := range order[i].fanouts {
			pending[s.id]--
			if pending[s.id] == 0 {
				order = append(order, s)
			}
		}
	}
	if len(order) != n.NumGates() {
		panic("network: cycle detected in TopoOrderFast")
	}
	return order
}

// TopoOrderAmong returns the given gates in topological order with
// respect to the edges whose endpoints are both in the set (membership
// decided by in): fanins in the set come before their in-set fanouts,
// and ready ties break on dense gate ID — the same determinism contract
// as TopoOrder. It panics if the subset contains a cycle. Region
// extraction uses it to walk a region interior fanin-first.
func TopoOrderAmong(gates []*Gate, in func(*Gate) bool) []*Gate {
	pending := make(map[*Gate]int, len(gates))
	var ready GateQueue
	for _, g := range gates {
		c := 0
		for _, f := range g.fanins {
			if in(f) {
				c++
			}
		}
		if c == 0 {
			ready.Push(uint64(g.id), g)
		} else {
			pending[g] = c
		}
	}
	order := make([]*Gate, 0, len(gates))
	for ready.Len() > 0 {
		g := ready.Pop()
		order = append(order, g)
		for _, s := range g.fanouts {
			if !in(s) {
				continue
			}
			pending[s]--
			if pending[s] == 0 {
				delete(pending, s)
				ready.Push(uint64(s.id), s)
			}
		}
	}
	if len(order) != len(gates) {
		panic("network: cycle detected in TopoOrderAmong")
	}
	return order
}

// ReverseTopoOrder returns gates in reverse topological order (fanouts
// before fanins) — the order supergate extraction walks the network.
func (n *Network) ReverseTopoOrder() []*Gate {
	fwd := n.TopoOrder()
	for i, j := 0, len(fwd)-1; i < j; i, j = i+1, j-1 {
		fwd[i], fwd[j] = fwd[j], fwd[i]
	}
	return fwd
}

// Levels returns each gate's logic level: inputs are level 0, every other
// gate is 1 + max level of its fanins. The map covers all live gates.
func (n *Network) Levels() map[*Gate]int {
	levels := make(map[*Gate]int, n.NumGates())
	for _, g := range n.TopoOrder() {
		lv := 0
		for _, f := range g.fanins {
			if l := levels[f] + 1; l > lv {
				lv = l
			}
		}
		levels[g] = lv
	}
	return levels
}

// Depth returns the maximum logic level over all gates (0 for a network of
// only inputs).
func (n *Network) Depth() int {
	max := 0
	for _, lv := range n.Levels() {
		if lv > max {
			max = lv
		}
	}
	return max
}

// Validate checks structural invariants: acyclicity, fanout-list/fanin-list
// consistency, legal fanin counts, and that every fanin is live. It returns
// the first violation found, or nil.
func (n *Network) Validate() error {
	live := make(map[*Gate]bool, n.NumGates())
	for _, g := range n.gates {
		if g != nil {
			live[g] = true
		}
	}
	faninEdges := make(map[[2]int]int)
	fanoutEdges := make(map[[2]int]int)
	for _, g := range n.gates {
		if g == nil {
			continue
		}
		if g.IsInput() && len(g.fanins) != 0 {
			return fmt.Errorf("input %s has fanins", g)
		}
		if !g.IsInput() && len(g.fanins) < g.Type.MinFanin() {
			return fmt.Errorf("%s has %d fanins, min %d", g, len(g.fanins), g.Type.MinFanin())
		}
		for _, f := range g.fanins {
			if !live[f] {
				return fmt.Errorf("%s has dead fanin", g)
			}
			faninEdges[[2]int{f.id, g.id}]++
		}
		for _, s := range g.fanouts {
			if !live[s] {
				return fmt.Errorf("%s has dead fanout", g)
			}
			fanoutEdges[[2]int{g.id, s.id}]++
		}
	}
	if len(faninEdges) != len(fanoutEdges) {
		return fmt.Errorf("fanin/fanout edge sets differ: %d vs %d", len(faninEdges), len(fanoutEdges))
	}
	for e, c := range faninEdges {
		if fanoutEdges[e] != c {
			return fmt.Errorf("edge %v multiplicity mismatch: fanin %d fanout %d", e, c, fanoutEdges[e])
		}
	}
	return n.CheckAcyclic()
}

// CheckAcyclic verifies acyclicity and fanin liveness and returns the
// first violation, or nil. It is one depth-first walk on dense
// ID-indexed colours, with no maps, so callers that only need these two
// invariants can afford it after every mutation; Validate runs it after
// its fanin-count and edge-multiset audits.
func (n *Network) CheckAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	colors := make([]uint8, n.nextID)
	var stack []*Gate
	for _, root := range n.gates {
		if root == nil || colors[root.id] != white {
			continue
		}
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			if colors[g.id] == white {
				colors[g.id] = gray
				for _, f := range g.fanins {
					if !n.Live(f) {
						return fmt.Errorf("%s has dead fanin %s", g, f)
					}
					switch colors[f.id] {
					case gray:
						return fmt.Errorf("combinational cycle through %s", f)
					case white:
						stack = append(stack, f)
					}
				}
			} else {
				colors[g.id] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// Clone returns a deep structural copy of the network. Gate names, types,
// PO flags, sizes, and placement are preserved; the clone shares no Gate
// pointers with the original. The returned map sends each original gate to
// its copy.
func (n *Network) Clone() (*Network, map[*Gate]*Gate) {
	c := New(n.name)
	m := make(map[*Gate]*Gate, n.NumGates())
	for _, g := range n.TopoOrder() {
		var cg *Gate
		if g.IsInput() {
			cg = c.AddInput(g.name)
		} else {
			fanins := make([]*Gate, len(g.fanins))
			for i, f := range g.fanins {
				fanins[i] = m[f]
			}
			cg = c.AddGate(g.name, g.Type, fanins...)
		}
		cg.PO = g.PO
		cg.SizeIdx = g.SizeIdx
		cg.X, cg.Y, cg.Placed = g.X, g.Y, g.Placed
		m[g] = cg
	}
	return c, m
}

// SupportOf returns the primary inputs in the transitive fanin cone of g,
// ordered by id.
func (n *Network) SupportOf(g *Gate) []*Gate {
	seen := make(map[*Gate]bool)
	var support []*Gate
	var walk func(*Gate)
	walk = func(x *Gate) {
		if seen[x] {
			return
		}
		seen[x] = true
		if x.IsInput() {
			support = append(support, x)
			return
		}
		for _, f := range x.fanins {
			walk(f)
		}
	}
	walk(g)
	sort.Slice(support, func(i, j int) bool { return support[i].id < support[j].id })
	return support
}
