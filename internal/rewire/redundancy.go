package rewire

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/supergate"
)

// RemoveRedundancy deletes one redundant stem branch found during
// extraction (Fig. 1 case 2 — agreeing implied values). Because an and-or
// supergate computes an AND of its leaf literals (up to polarity), a stem
// reaching two leaves with the same implied value contributes the same
// literal twice; dropping one occurrence leaves the root function — and
// hence the network function — unchanged, while removing a wire and
// sometimes a whole chain of gates.
//
// The deeper duplicate leaf is removed (shortening logic). When the leaf's
// gate drops to a single input, the gate is retyped to the inverter or
// buffer realizing its residual function. Case 1 (conflicting values)
// records a constant-valued root; removing it needs constant propagation,
// which the mapped network deliberately does not model, so it is rejected.
//
// The extraction that produced sg becomes stale; re-extract afterwards.
func RemoveRedundancy(n *network.Network, sg *supergate.Supergate, r supergate.Redundancy) error {
	if r.Conflict {
		return fmt.Errorf("rewire: case-1 (conflicting) redundancy at %s requires constant propagation", r.Stem.Name())
	}
	if sg.Kind != supergate.AndOr {
		return fmt.Errorf("rewire: redundancy removal applies to and-or supergates, got %v", sg.Kind)
	}
	v := r.Values[0]
	var dup []supergate.Leaf
	for _, l := range sg.Leaves {
		if l.Driver == r.Stem && l.Imp == v {
			dup = append(dup, l)
		}
	}
	if len(dup) < 2 {
		return fmt.Errorf("rewire: stem %s does not reach %v twice as a leaf", r.Stem.Name(), sg.Root.Name())
	}
	// Drop the deepest occurrence.
	victim := dup[0]
	for _, l := range dup[1:] {
		if l.Depth > victim.Depth {
			victim = l
		}
	}
	return removePin(n, victim.Pin)
}

// removePin detaches one in-pin of an AND/OR-family gate whose implied
// value is non-controlling (the invariant of supergate leaves), shrinking
// or retyping the gate.
func removePin(n *network.Network, p network.Pin) error {
	g := p.Gate
	if !g.Type.IsAndOr() {
		return fmt.Errorf("rewire: cannot remove pin of %v gate %s", g.Type, g.Name())
	}
	switch {
	case g.NumFanins() > 2:
		fanins := make([]*network.Gate, 0, g.NumFanins()-1)
		for i, f := range g.Fanins() {
			if i == p.Index {
				continue
			}
			fanins = append(fanins, f)
		}
		n.SetFanins(g, fanins)
	case g.NumFanins() == 2:
		// The residual single-input function: NAND/NOR become INV,
		// AND/OR become BUF.
		other := g.Fanin(1 - p.Index)
		n.SetFanins(g, []*network.Gate{other})
		if _, inverted := g.Type.Base(); inverted {
			g.Type = logic.Inv
		} else {
			g.Type = logic.Buf
		}
		// If the shrink produced INV feeding INV, bypass the pair
		// locally (non-PO only); the pattern NAND(g, INV(NAND(g,x)))
		// shrinks all the way to NAND(g, x) this way.
		if g.Type == logic.Inv && !g.PO {
			for _, sinkInv := range append([]*network.Gate(nil), g.Fanouts()...) {
				if sinkInv.Type != logic.Inv || sinkInv.PO {
					continue
				}
				n.TransferFanouts(sinkInv, other)
			}
		}
	default:
		return fmt.Errorf("rewire: gate %s has too few pins to shrink", g.Name())
	}
	n.Sweep()
	return nil
}

// RemoveAllRedundancies repeatedly extracts supergates and removes every
// removable (case 2) redundancy until none remain, returning the number
// removed. Placement is untouched; the network only loses wires and gates.
func RemoveAllRedundancies(n *network.Network) int {
	removed := 0
	for {
		ext := supergate.Extract(n)
		progress := false
		for _, r := range ext.Redundancies {
			if r.Conflict {
				continue
			}
			sg := ext.Of(r.Root)
			if sg == nil {
				continue
			}
			if err := RemoveRedundancy(n, sg, r); err == nil {
				removed++
				progress = true
				// The extraction is stale after a removal; restart.
				break
			}
		}
		if !progress {
			return removed
		}
	}
}
