// Package rewire turns the symmetries found by supergate extraction into
// netlist transformations (§4 of the paper):
//
//   - Non-inverting swappable pins (NES): two and-or leaves with equal
//     implied values, or any two xor leaves — their driver wires exchange
//     directly (Lemma 7, Lemma 8).
//   - Inverting swappable pins (ES): two and-or leaves with differing
//     implied values, or any two xor leaves — the drivers exchange through
//     inverters (Lemma 7, Lemma 8).
//   - DeMorgan transformation of a supergate (Definition 4) and
//     cross-supergate swapping (Theorem 2): whole fanin sets of two
//     symmetric sibling supergates exchange.
//
// Every transformation preserves network functionality; the test suite
// verifies each against exhaustive simulation. Swaps never move placed
// cells — only wires (and, for inverting swaps, freshly inserted
// inverters) change, which is the paper's central selling point.
package rewire

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/supergate"
)

// Swap describes exchanging the drivers of two leaves of one supergate.
type Swap struct {
	SG *supergate.Supergate
	// I, J are leaf indices into SG.Leaves.
	I, J int
	// Inverting selects the ES-style swap through inverters.
	Inverting bool
}

func (s Swap) String() string {
	mode := "non-inverting"
	if s.Inverting {
		mode = "inverting"
	}
	return fmt.Sprintf("swap(%v, leaves %d<->%d, %s)", s.SG.Root.Name(), s.I, s.J, mode)
}

// Options reports which swap styles Lemmas 7 and 8 allow for leaves i and
// j of sg: non-inverting (NES) and/or inverting (ES). Chain supergates and
// identical indices allow nothing.
func Options(sg *supergate.Supergate, i, j int) (nonInverting, inverting bool) {
	if i == j || sg.Kind == supergate.Chain {
		return false, false
	}
	switch sg.Kind {
	case supergate.Xor:
		// Lemma 8: xor-reachable pins are both inverting and
		// non-inverting swappable.
		return true, true
	case supergate.AndOr:
		// Lemma 7: equal implied values ⇒ non-inverting, differing ⇒
		// inverting.
		if sg.Leaves[i].Imp == sg.Leaves[j].Imp {
			return true, false
		}
		return false, true
	}
	return false, false
}

// Enumerate lists every legal swap of sg. For xor supergates only the
// non-inverting form is emitted (the inverting form is never cheaper — it
// adds two inverters for the same exchange).
func Enumerate(sg *supergate.Supergate) []Swap {
	return EnumerateInto(nil, sg)
}

// EnumerateInto is Enumerate appending to a caller-owned buffer, so hot
// loops that enumerate swaps per supergate per phase reuse one slice
// instead of allocating each time.
func EnumerateInto(swaps []Swap, sg *supergate.Supergate) []Swap {
	k := len(sg.Leaves)
	if k < 2 {
		return swaps
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			nonInv, inv := Options(sg, i, j)
			switch {
			case nonInv:
				swaps = append(swaps, Swap{SG: sg, I: i, J: j})
			case inv:
				swaps = append(swaps, Swap{SG: sg, I: i, J: j, Inverting: true})
			}
		}
	}
	return swaps
}

// Undo reverts an applied swap. Undos of a batch must run in reverse
// order of their applies, with nothing else moving the affected pins in
// between; then each is the exact inverse of its Apply.
type Undo func()

// Apply performs the swap on n and returns an Undo. The supergate's Leaf
// records become stale (drivers changed); re-extract before enumerating
// further swaps on the same supergate.
//
// For inverting swaps, an existing inverter driver is collapsed instead of
// stacking a second inverter (INV(INV(x)) = x), so repeated rewiring does
// not accrete inverter chains.
//
// The Undo reverses the steps in LIFO order: each pin is reconnected at
// its recorded fanout position (network.UndoReplaceFanin), and each
// inverter the apply created is removed right after the pin it fed lets
// go of it. Every gate's fanin and fanout lists, order included, are
// then what they were before the apply.
func Apply(n *network.Network, s Swap) Undo {
	pi := s.SG.Leaves[s.I].Pin
	pj := s.SG.Leaves[s.J].Pin
	di, dj := pi.Driver(), pj.Driver()
	ni, nj := dj, di
	var invI, invJ *network.Gate
	if s.Inverting {
		ni, invI = invertedDriver(n, dj)
	}
	posI := n.ReplaceFaninAt(pi.Gate, pi.Index, ni)
	if s.Inverting {
		nj, invJ = invertedDriver(n, di)
	}
	posJ := n.ReplaceFaninAt(pj.Gate, pj.Index, nj)
	return func() {
		n.UndoReplaceFanin(pj.Gate, pj.Index, dj, posJ)
		removeCreated(n, invJ)
		n.UndoReplaceFanin(pi.Gate, pi.Index, di, posI)
		removeCreated(n, invI)
	}
}

// removeCreated deletes an inverter an apply created once nothing uses
// it. Only an apply's own inverters go: a global sweep here would collect
// gates that *other* pending swaps detached and whose undos will
// reattach them.
func removeCreated(n *network.Network, inv *network.Gate) {
	if inv != nil && inv.NumFanouts() == 0 && !inv.PO {
		n.RemoveGate(inv)
	}
}

// invertedDriver returns a signal equal to INV(d): d's input when d is
// itself an inverter (INV(INV(x)) = x), otherwise a fresh inverter, which
// it also returns as created. It never reuses an inverter d happens to
// drive — such a gate can be the interior of the very supergate being
// rewired, and aliasing it would corrupt the structure.
func invertedDriver(n *network.Network, d *network.Gate) (sig, created *network.Gate) {
	if d.Type == logic.Inv {
		return d.Fanin(0), nil
	}
	inv := n.AddGate(n.FreshName(d.Name()+"_n"), logic.Inv, d)
	return inv, inv
}

// dualType flips the base AND/OR function of an and-or gate type, keeping
// its inversion: NAND↔NOR, AND↔OR.
func dualType(t logic.GateType) logic.GateType {
	switch t {
	case logic.And:
		return logic.Or
	case logic.Or:
		return logic.And
	case logic.Nand:
		return logic.Nor
	case logic.Nor:
		return logic.Nand
	}
	return t
}

// DeMorgan applies Definition 4 to an and-or supergate in place: every
// covered AND/OR-family gate is dualized and inverters are added to every
// leaf pin and to the root's output. The network function is unchanged
// (f(x) = ¬ dual(f)(¬x)). The new output inverter takes over the root's
// name and PO flag so the network interface is stable; it is returned.
//
// The extraction that produced sg is invalidated; re-extract afterwards.
func DeMorgan(n *network.Network, sg *supergate.Supergate) (*network.Gate, error) {
	if sg.Kind != supergate.AndOr {
		return nil, fmt.Errorf("rewire: DeMorgan requires an and-or supergate, got %v", sg.Kind)
	}
	for _, g := range sg.Gates {
		n.SetGateType(g, dualType(g.Type))
	}
	for _, l := range sg.Leaves {
		n.InsertInverter(l.Pin)
	}
	root := sg.Root
	origName := root.Name()
	n.Rename(root, n.FreshName(origName+"_dm"))
	outInv := n.AddGate(origName, logic.Inv, root)
	n.TransferFanouts(root, outInv)
	return outInv, nil
}

// FuncDesc canonically describes an and-or supergate's function over its
// leaf wires. Because the root takes its non-controlled output value
// exactly when every leaf pin carries its implied value (and the
// controlled value otherwise), the pair (RNC, Imps) determines the
// function completely: f(leaves) = RNC iff leaf_i == Imps[i] for all i.
type FuncDesc struct {
	// RNC is the root out-pin value produced when all leaves sit at their
	// implied values.
	RNC logic.Bit
	// Imps are the leaf implied values in leaf order.
	Imps []logic.Bit
}

// Desc computes the function descriptor of an and-or supergate.
func Desc(sg *supergate.Supergate) (FuncDesc, error) {
	if sg.Kind != supergate.AndOr {
		return FuncDesc{}, fmt.Errorf("rewire: descriptor requires an and-or supergate, got %v", sg.Kind)
	}
	// Walk the unary prefix from the root to the functional gate,
	// accumulating inversions, as extraction did.
	parity := logic.Bit(0)
	var fn *network.Gate
	for _, g := range sg.Gates {
		if g.Type == logic.Inv {
			parity ^= 1
			continue
		}
		if g.Type == logic.Buf {
			continue
		}
		fn = g
		break
	}
	if fn == nil {
		return FuncDesc{}, fmt.Errorf("rewire: supergate %v has no functional root", sg)
	}
	d := FuncDesc{RNC: fn.Type.NonControlledOutput() ^ parity}
	for _, l := range sg.Leaves {
		d.Imps = append(d.Imps, l.Imp)
	}
	return d, nil
}

// equal / opposite classify two descriptors.
func (d FuncDesc) equal(o FuncDesc) bool {
	if d.RNC != o.RNC || len(d.Imps) != len(o.Imps) {
		return false
	}
	for i := range d.Imps {
		if d.Imps[i] != o.Imps[i] {
			return false
		}
	}
	return true
}

func (d FuncDesc) opposite(o FuncDesc) bool {
	if d.RNC == o.RNC || len(d.Imps) != len(o.Imps) {
		return false
	}
	for i := range d.Imps {
		if d.Imps[i] == o.Imps[i] {
			return false
		}
	}
	return true
}

// CrossSwapCompatible reports whether Theorem 2's fanin-set exchange
// applies to sg1 and sg2, and whether it requires dualizing both
// supergates first. Two cases are legal:
//
//   - identical descriptors: the supergates compute the same function of
//     their leaf wires, so the wire sets exchange directly;
//   - exactly opposite descriptors (RNC and every implied value flipped):
//     dualizing every covered AND/OR gate of both supergates (the net
//     effect of the paper's DeMorgan transforms after the inserted
//     inverters cancel pairwise against the swapped wires) turns each
//     into the other's function, after which the wire sets exchange.
func CrossSwapCompatible(sg1, sg2 *supergate.Supergate) (dualize bool, err error) {
	if len(sg1.Leaves) != len(sg2.Leaves) {
		return false, fmt.Errorf("rewire: fanin counts differ: %d vs %d", len(sg1.Leaves), len(sg2.Leaves))
	}
	d1, err := Desc(sg1)
	if err != nil {
		return false, err
	}
	d2, err := Desc(sg2)
	if err != nil {
		return false, err
	}
	switch {
	case d1.equal(d2):
		return false, nil
	case d1.opposite(d2):
		return true, nil
	}
	return false, fmt.Errorf("rewire: supergate functions neither equal nor dual (%v vs %v)", d1, d2)
}

// CrossSwap exchanges the fanin sets of two sibling supergates
// positionally (Theorem 2): leaf i of sg1 takes leaf i of sg2's driver and
// vice versa, dualizing both supergates' gates first when their functions
// are duals of each other. No cell moves; at most cell *types* flip
// between NAND and NOR (equal fanin implementations exist for both).
//
// Validity requires the caller to ensure the two supergate outputs are
// non-inverting swappable wires (e.g. leaves of a common parent supergate
// with equal implied values, or of an xor supergate), and that neither
// supergate feeds the other. The extraction becomes stale afterwards.
func CrossSwap(n *network.Network, sg1, sg2 *supergate.Supergate) error {
	dualize, err := CrossSwapCompatible(sg1, sg2)
	if err != nil {
		return err
	}
	if dualize {
		for _, sg := range []*supergate.Supergate{sg1, sg2} {
			for _, g := range sg.Gates {
				n.SetGateType(g, dualType(g.Type))
			}
		}
	}
	for i := range sg1.Leaves {
		n.SwapPins(sg1.Leaves[i].Pin, sg2.Leaves[i].Pin)
	}
	return nil
}
