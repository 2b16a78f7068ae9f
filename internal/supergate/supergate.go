// Package supergate implements the paper's core contribution: linear-time
// extraction of Generalized Implication Supergates (GISGs, §3) from a
// mapped Boolean network, and with them the detection of functional
// symmetries and of easily detectable redundancies.
//
// A GISG rooted at gate f is the maximal fanout-free sub-network of gates
// that are either and-or-reachable from f (a logic value can be inferred
// at them by direct backward implication when f is set to its
// non-controlled output value) or xor-reachable from f (connected through
// XOR/XNOR/INV/BUF gates only). Theorem 1 of the paper states that two
// in-pins covered by the same GISG are functionally symmetric with respect
// to the supergate root — the basis of all rewiring in this system.
//
// Extraction processes gates in reverse topological order starting from
// primary outputs. Backward implication stops at multiple-fanout nodes and
// at gates whose implied value cannot infer their inputs; such gates become
// new supergate roots. The result uniquely partitions the network into
// AND, OR, and XOR supergates with inverters and buffers absorbed at their
// pins (§3.2).
package supergate

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/network"
)

// Kind classifies a supergate by the functional base of its root.
type Kind uint8

const (
	// AndOr supergates grow by direct backward implication through
	// AND/OR/NAND/NOR (and unary) gates; their leaf pins carry implied
	// values.
	AndOr Kind = iota
	// Xor supergates grow through XOR/XNOR/INV/BUF chains; their leaf
	// pins are xor-reachable and carry no implied values.
	Xor
	// Chain supergates are pure inverter/buffer chains with a single
	// leaf; they offer no symmetries.
	Chain
)

func (k Kind) String() string {
	switch k {
	case AndOr:
		return "and-or"
	case Xor:
		return "xor"
	case Chain:
		return "chain"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Leaf is one input pin of a supergate: an in-pin of a covered gate whose
// driver lies outside the supergate.
type Leaf struct {
	// Pin is the boundary in-pin.
	Pin network.Pin
	// Driver is the gate outside the supergate feeding the pin.
	Driver *network.Gate
	// Imp is imp_value(pin): the logic value inferred at the pin during
	// direct backward implication. Meaningful only for AndOr supergates.
	Imp logic.Bit
	// Depth is the number of covered gates on the path from this pin to
	// the root's out-pin (1 for a pin of the root itself).
	Depth int
}

// Supergate is one extracted GISG.
type Supergate struct {
	Root   *network.Gate
	Kind   Kind
	Gates  []*network.Gate // covered gates, root first
	Leaves []Leaf

	// reds are the Fig. 1 redundancies this extraction found; the
	// per-supergate storage lets the incremental Cache keep the flat
	// Extraction.Redundancies view current across re-extractions.
	reds []Redundancy
	// invalid marks a supergate dropped from a cached extraction; see
	// cache.go.
	invalid bool
}

// Trivial reports whether the supergate covers only its root gate, as in
// the paper ("a supergate is trivial if it only covers one gate").
func (sg *Supergate) Trivial() bool { return len(sg.Gates) == 1 }

// MaxDepth returns the largest leaf depth.
func (sg *Supergate) MaxDepth() int {
	max := 0
	for _, l := range sg.Leaves {
		if l.Depth > max {
			max = l.Depth
		}
	}
	return max
}

func (sg *Supergate) String() string {
	return fmt.Sprintf("SG(%s@%s: %d gates, %d leaves)",
		sg.Kind, sg.Root.Name(), len(sg.Gates), len(sg.Leaves))
}

// Redundancy records a stem where backward implication reconverged during
// extraction (Fig. 1). Conflict distinguishes the two cases: conflicting
// implied values (case 1 — the stem gate's value cannot affect the root,
// so its stuck-at faults toward this root are untestable) versus agreeing
// values (case 2 — one fanout branch of the stem is stuck-at untestable).
type Redundancy struct {
	// Stem is the multi-fanout gate implication reconverged on.
	Stem *network.Gate
	// Root is the supergate root whose extraction found it.
	Root *network.Gate
	// Conflict is true for case 1, false for case 2.
	Conflict bool
	// Values are the distinct implied values observed (one or two).
	Values []logic.Bit
}

// Extraction is the supergate decomposition of a network.
type Extraction struct {
	// Supergates lists all supergates in extraction (reverse topological
	// root) order.
	Supergates []*Supergate
	// Redundancies are the stems found per Fig. 1 during extraction.
	Redundancies []Redundancy

	// byGate holds every covered logic gate's covering supergate,
	// indexed by gate ID (dense and never reused, see network.IDBound);
	// read it through Of.
	byGate []*Supergate

	// nonTrivial caches NonTrivial while nonTrivialOK; a Cache clears
	// the flag whenever it changes Supergates.
	nonTrivial   []*Supergate
	nonTrivialOK bool
}

// Of returns the supergate covering gate g, or nil when g is a primary
// input or not covered.
func (e *Extraction) Of(g *network.Gate) *Supergate {
	if id := g.ID(); id < len(e.byGate) {
		return e.byGate[id]
	}
	return nil
}

// cover records sg as the supergate covering g, growing the index for a
// gate created since the last extraction.
func (e *Extraction) cover(g *network.Gate, sg *Supergate) {
	id := g.ID()
	if id >= len(e.byGate) {
		e.byGate = append(e.byGate, make([]*Supergate, id+1-len(e.byGate))...)
	}
	e.byGate[id] = sg
}

// uncover drops g's entry from the index.
func (e *Extraction) uncover(g *network.Gate) {
	if id := g.ID(); id < len(e.byGate) {
		e.byGate[id] = nil
	}
}

// Extract decomposes n into generalized implication supergates. Every
// non-input gate is covered by exactly one supergate. The run time is
// linear in the number of pins of the network.
func Extract(n *network.Network) *Extraction {
	e := &Extraction{byGate: make([]*Supergate, n.IDBound())}
	for _, g := range n.ReverseTopoOrder() {
		if g.IsInput() || e.Of(g) != nil {
			continue
		}
		sg := e.extractOne(g)
		e.Supergates = append(e.Supergates, sg)
		for _, covered := range sg.Gates {
			e.cover(covered, sg)
		}
	}
	for _, sg := range e.Supergates {
		e.Redundancies = append(e.Redundancies, sg.reds...)
	}
	return e
}

// absorbable reports whether backward propagation may continue into driver
// d at all: d must be a logic gate with exactly one fanout branch (a
// fanout-free interior node; primary outputs count as a branch).
func absorbable(d *network.Gate) bool {
	return !d.IsInput() && d.FanoutBranches() == 1
}

// extractOne grows the supergate rooted at root.
func (e *Extraction) extractOne(root *network.Gate) *Supergate {
	sg := &Supergate{Root: root}

	// Peel the unary prefix: the functional base of the supergate is the
	// first non-unary gate reachable from the root through absorbable
	// INV/BUF gates.
	cur := root
	depth := 0
	for cur.Type.IsUnary() {
		sg.Gates = append(sg.Gates, cur)
		depth++
		d := cur.Fanin(0)
		if !absorbable(d) {
			// Pure chain; its single boundary pin is not symmetric with
			// anything.
			sg.Kind = Chain
			sg.Leaves = append(sg.Leaves, Leaf{
				Pin:    network.Pin{Gate: cur, Index: 0},
				Driver: d,
				Depth:  depth,
			})
			return sg
		}
		cur = d
	}

	if cur.Type.IsXorLike() {
		sg.Kind = Xor
		e.growXor(sg, cur, depth)
	} else {
		sg.Kind = AndOr
		// Direct backward implication starts by setting the functional
		// root to its non-controlled output value, which infers ncv at
		// every in-pin (§2).
		seen := make(map[*network.Gate][]logic.Bit)
		e.growAndOr(sg, cur, depth, seen)
		e.recordRedundancies(sg, seen)
	}
	return sg
}

// growAndOr covers gate g (whose out-pin has been implied to its
// non-controlled output value) and recurses through its fanins. seen
// accumulates the implied value observed at every driver out-pin touched
// by this traversal, for Fig. 1 redundancy detection.
func (e *Extraction) growAndOr(sg *Supergate, g *network.Gate, depth int, seen map[*network.Gate][]logic.Bit) {
	sg.Gates = append(sg.Gates, g)
	depth++
	base, _ := g.Type.Base()
	pinVal := base.NonControllingValue()
	for i := 0; i < g.NumFanins(); i++ {
		e.growAndOrPin(sg, network.Pin{Gate: g, Index: i}, pinVal, depth, seen)
	}
}

// growAndOrPin handles one implied in-pin: either absorb its driver and
// keep implying, or record a leaf.
func (e *Extraction) growAndOrPin(sg *Supergate, pin network.Pin, pinVal logic.Bit, depth int, seen map[*network.Gate][]logic.Bit) {
	d := pin.Driver()
	seen[d] = append(seen[d], pinVal)
	if absorbable(d) {
		switch {
		case d.Type.IsUnary():
			// INV/BUF pass the implication through (inverted for INV).
			sg.Gates = append(sg.Gates, d)
			next := pinVal
			if d.Type == logic.Inv {
				next ^= 1
			}
			e.growAndOrPin(sg, network.Pin{Gate: d, Index: 0}, next, depth+1, seen)
			return
		case d.Type.IsAndOr() && pinVal == d.Type.NonControlledOutput():
			// The implied value at d's out-pin lets implication continue:
			// all of d's in-pins are inferred.
			e.growAndOr(sg, d, depth, seen)
			return
		}
	}
	// Propagation stops here: the pin is a supergate input with
	// imp_value(pin) = pinVal.
	sg.Leaves = append(sg.Leaves, Leaf{Pin: pin, Driver: d, Imp: pinVal, Depth: depth})
}

// growXor covers gate g in an XOR supergate and recurses through
// XOR/XNOR/INV/BUF fanins.
func (e *Extraction) growXor(sg *Supergate, g *network.Gate, depth int) {
	sg.Gates = append(sg.Gates, g)
	depth++
	for i := 0; i < g.NumFanins(); i++ {
		pin := network.Pin{Gate: g, Index: i}
		d := pin.Driver()
		if absorbable(d) && (d.Type.IsXorLike() || d.Type.IsUnary()) {
			if d.Type.IsUnary() {
				// Unary gates are covered and passed through; XOR
				// reachability only requires XOR/INV/BUF along the path.
				sg.Gates = append(sg.Gates, d)
				e.growXorThrough(sg, d, depth+1)
			} else {
				e.growXor(sg, d, depth)
			}
			continue
		}
		sg.Leaves = append(sg.Leaves, Leaf{Pin: pin, Driver: d, Depth: depth})
	}
}

// growXorThrough continues an XOR supergate through a covered unary gate.
func (e *Extraction) growXorThrough(sg *Supergate, u *network.Gate, depth int) {
	pin := network.Pin{Gate: u, Index: 0}
	d := pin.Driver()
	if absorbable(d) && (d.Type.IsXorLike() || d.Type.IsUnary()) {
		if d.Type.IsUnary() {
			sg.Gates = append(sg.Gates, d)
			e.growXorThrough(sg, d, depth+1)
		} else {
			e.growXor(sg, d, depth)
		}
		return
	}
	sg.Leaves = append(sg.Leaves, Leaf{Pin: pin, Driver: d, Depth: depth})
}

// recordRedundancies inspects the implied values seen per driver during
// one and-or extraction. A driver reached through two or more pins is a
// reconvergent fanout stem: agreeing values are Fig. 1 case 2 (one branch
// stuck-at untestable), conflicting values are Fig. 1 case 1 (the stem
// cannot affect the root at all).
func (e *Extraction) recordRedundancies(sg *Supergate, seen map[*network.Gate][]logic.Bit) {
	// Iterate leaves (deterministic order) rather than the map.
	reported := make(map[*network.Gate]bool)
	report := func(d *network.Gate) {
		vals := seen[d]
		if len(vals) < 2 || reported[d] {
			return
		}
		reported[d] = true
		conflict := false
		for _, v := range vals[1:] {
			if v != vals[0] {
				conflict = true
				break
			}
		}
		distinct := []logic.Bit{vals[0]}
		if conflict {
			distinct = append(distinct, vals[0]^1)
		}
		sg.reds = append(sg.reds, Redundancy{
			Stem:     d,
			Root:     sg.Root,
			Conflict: conflict,
			Values:   distinct,
		})
	}
	for _, l := range sg.Leaves {
		report(l.Driver)
	}
	// Covered interior gates can also be reconvergence points when a gate
	// feeds two pins of the same covered gate.
	for _, g := range sg.Gates {
		report(g)
	}
}

// Coverage returns the fraction of logic gates covered by non-trivial
// supergates — Table 1's "gsg cov (%)" column.
func (e *Extraction) Coverage() float64 {
	covered, total := 0, 0
	for _, sg := range e.byGate {
		if sg == nil {
			continue
		}
		total++
		if !sg.Trivial() {
			covered++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// MaxLeaves returns the number of inputs of the largest supergate —
// Table 1's "L" column.
func (e *Extraction) MaxLeaves() int {
	max := 0
	for _, sg := range e.Supergates {
		if len(sg.Leaves) > max {
			max = len(sg.Leaves)
		}
	}
	return max
}

// NonTrivial returns the supergates covering more than one gate, in
// Supergates order. The slice is built once per change of the
// decomposition and shared: callers must not modify it.
func (e *Extraction) NonTrivial() []*Supergate {
	if !e.nonTrivialOK {
		e.nonTrivial = nil
		for _, sg := range e.Supergates {
			if !sg.Trivial() {
				e.nonTrivial = append(e.nonTrivial, sg)
			}
		}
		e.nonTrivialOK = true
	}
	return e.nonTrivial
}
