// Package atpg provides the test-generation-theoretic oracles the paper
// builds its proofs on. The paper itself stresses that its *algorithm*
// does not run ATPG — ATPG is the proof tool (Lemma 1, after Pomeranz &
// Reddy): two pins are NES symmetric iff no test sets one to D, the other
// to D̄, and propagates a fault difference to the output; ES is the same
// with D, D. Over the bounded supports that arise inside supergates,
// test existence is decidable exhaustively, which is what this package
// does:
//
//   - SupergateTruthTable evaluates a supergate root as a function of its
//     leaf *pins* (internal signals Y of §2, not primary inputs), so
//     symmetry of pins can be checked by cofactor comparison.
//   - NES/ES implement the cofactor definitions of §2 directly.
//   - VerifySupergateSymmetries cross-validates the linear-time detector:
//     every symmetry Theorem 1 and Lemmas 7–8 promise must hold on the
//     truth table.
//   - PinStuckAtTestable / StemStuckAtTestable decide single-stuck-at
//     testability by exhaustive good/faulty simulation, validating the
//     Fig. 1 redundancy claims.
//
// The package is test code: every file is a _test.go file, so only
// `go test ./internal/atpg` builds it, and no binary, example or facade
// path can import it.
package atpg

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/supergate"
)

// MaxOracleInputs bounds exhaustive enumeration (2^18 evaluations).
const MaxOracleInputs = 18

// SupergateTruthTable returns the root function of sg over its leaf pins:
// bit i of the index corresponds to leaf i. An error is returned when the
// supergate has more than MaxOracleInputs leaves.
func SupergateTruthTable(sg *supergate.Supergate) ([]bool, error) {
	k := len(sg.Leaves)
	if k > MaxOracleInputs {
		return nil, fmt.Errorf("atpg: supergate has %d leaves, oracle limit %d", k, MaxOracleInputs)
	}
	inSG := make(map[*network.Gate]bool, len(sg.Gates))
	for _, g := range sg.Gates {
		inSG[g] = true
	}
	leafOf := make(map[network.Pin]int, k)
	for i, l := range sg.Leaves {
		leafOf[l.Pin] = i
	}
	tt := make([]bool, 1<<k)
	memo := make(map[*network.Gate]logic.Bit, len(sg.Gates))
	for idx := range tt {
		for g := range memo {
			delete(memo, g)
		}
		var eval func(g *network.Gate) logic.Bit
		eval = func(g *network.Gate) logic.Bit {
			if v, ok := memo[g]; ok {
				return v
			}
			ins := make([]logic.Bit, g.NumFanins())
			for i := range ins {
				pin := network.Pin{Gate: g, Index: i}
				if li, isLeaf := leafOf[pin]; isLeaf {
					ins[i] = logic.Bit(idx >> li & 1)
					continue
				}
				d := g.Fanin(i)
				if !inSG[d] {
					// Covered gates only take inputs from leaves or other
					// covered gates; anything else is a structural bug.
					panic(fmt.Sprintf("atpg: non-leaf pin %v driven from outside supergate", pin))
				}
				ins[i] = eval(d)
			}
			v := g.Type.Eval(ins)
			memo[g] = v
			return v
		}
		tt[idx] = eval(sg.Root) == 1
	}
	return tt, nil
}

// NES reports non-equivalence symmetry of variables i and j in the truth
// table tt: f with (xi,xj)=(1,0) equals f with (xi,xj)=(0,1) for all
// assignments of the remaining variables (§2).
func NES(tt []bool, i, j int) bool {
	for idx := range tt {
		bi, bj := idx>>i&1, idx>>j&1
		if bi == 1 && bj == 0 {
			swapped := idx&^(1<<i) | 1<<j
			if tt[idx] != tt[swapped] {
				return false
			}
		}
	}
	return true
}

// ES reports equivalence symmetry of variables i and j in tt: f with
// (xi,xj)=(1,1) equals f with (xi,xj)=(0,0) for all assignments of the
// remaining variables (§2).
func ES(tt []bool, i, j int) bool {
	for idx := range tt {
		bi, bj := idx>>i&1, idx>>j&1
		if bi == 1 && bj == 1 {
			flipped := idx &^ (1 << i) &^ (1 << j)
			if tt[idx] != tt[flipped] {
				return false
			}
		}
	}
	return true
}

// VerifySupergateSymmetries checks the linear-time detector's promises
// against the exhaustive oracle for every leaf pair of sg:
//
//   - and-or supergates: equal implied values ⇒ NES, differing implied
//     values ⇒ ES (Lemma 7);
//   - xor supergates: every pair is both NES and ES (Lemma 8).
//
// It returns the first violated promise.
func VerifySupergateSymmetries(sg *supergate.Supergate) error {
	if sg.Kind == supergate.Chain || len(sg.Leaves) < 2 {
		return nil
	}
	tt, err := SupergateTruthTable(sg)
	if err != nil {
		return err
	}
	k := len(sg.Leaves)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			switch sg.Kind {
			case supergate.Xor:
				if !NES(tt, i, j) {
					return fmt.Errorf("atpg: xor leaves %d,%d of %v not NES", i, j, sg)
				}
				if !ES(tt, i, j) {
					return fmt.Errorf("atpg: xor leaves %d,%d of %v not ES", i, j, sg)
				}
			case supergate.AndOr:
				li, lj := sg.Leaves[i], sg.Leaves[j]
				if li.Imp == lj.Imp {
					if !NES(tt, i, j) {
						return fmt.Errorf("atpg: and-or leaves %d,%d of %v (equal imp) not NES", i, j, sg)
					}
				} else {
					if !ES(tt, i, j) {
						return fmt.Errorf("atpg: and-or leaves %d,%d of %v (differing imp) not ES", i, j, sg)
					}
				}
			}
		}
	}
	return nil
}

// evalWithFault evaluates the cone of observe with an optional fault:
// faultPin (when valid) is forced to faultVal on that in-pin only (a
// branch fault); faultStem (when non-nil) forces the gate's out-pin
// everywhere (a stem fault). assignment maps PIs to values.
func evalWithFault(observe *network.Gate, assignment map[*network.Gate]logic.Bit,
	faultPin network.Pin, faultStem *network.Gate, faultVal logic.Bit) logic.Bit {

	memo := make(map[*network.Gate]logic.Bit)
	var eval func(g *network.Gate) logic.Bit
	eval = func(g *network.Gate) logic.Bit {
		if v, ok := memo[g]; ok {
			return v
		}
		var v logic.Bit
		if g.IsInput() {
			v = assignment[g]
		} else {
			ins := make([]logic.Bit, g.NumFanins())
			for i := range ins {
				if faultPin.Gate == g && faultPin.Index == i {
					ins[i] = faultVal
					continue
				}
				ins[i] = eval(g.Fanin(i))
			}
			v = g.Type.Eval(ins)
		}
		if g == faultStem {
			v = faultVal
		}
		memo[g] = v
		return v
	}
	return eval(observe)
}

// enumerate runs fn over all assignments of the support of observe,
// stopping early when fn returns true. It errors when the support exceeds
// MaxOracleInputs.
func enumerate(n *network.Network, observe *network.Gate, fn func(map[*network.Gate]logic.Bit) bool) (bool, error) {
	support := n.SupportOf(observe)
	if len(support) > MaxOracleInputs {
		return false, fmt.Errorf("atpg: support %d exceeds oracle limit %d", len(support), MaxOracleInputs)
	}
	assignment := make(map[*network.Gate]logic.Bit, len(support))
	total := 1 << len(support)
	for idx := 0; idx < total; idx++ {
		for i, pi := range support {
			assignment[pi] = logic.Bit(idx >> i & 1)
		}
		if fn(assignment) {
			return true, nil
		}
	}
	return false, nil
}

// PinStuckAtTestable reports whether the branch fault "in-pin pin stuck at
// v" is testable observing gate observe: some input assignment makes the
// faulty value differ from the good value at observe.
func PinStuckAtTestable(n *network.Network, pin network.Pin, v logic.Bit, observe *network.Gate) (bool, error) {
	return enumerate(n, observe, func(a map[*network.Gate]logic.Bit) bool {
		good := evalWithFault(observe, a, network.Pin{}, nil, 0)
		faulty := evalWithFault(observe, a, pin, nil, v)
		return good != faulty
	})
}

// StemStuckAtTestable reports whether the stem fault "out-pin of g stuck
// at v" is testable observing gate observe.
func StemStuckAtTestable(n *network.Network, g *network.Gate, v logic.Bit, observe *network.Gate) (bool, error) {
	return enumerate(n, observe, func(a map[*network.Gate]logic.Bit) bool {
		good := evalWithFault(observe, a, network.Pin{}, nil, 0)
		faulty := evalWithFault(observe, a, network.Pin{}, g, v)
		return good != faulty
	})
}

// VerifyRedundancy checks a redundancy record from supergate extraction
// against the exhaustive oracle, observing the supergate root:
//
//   - case 1 (conflict): both stem stuck-at faults are untestable at the
//     root (the root cannot depend on the stem);
//   - case 2 (agreement): at least one branch of the stem into the
//     supergate is stuck-at untestable at the root, at the implied value.
func VerifyRedundancy(n *network.Network, r supergate.Redundancy, sg *supergate.Supergate) error {
	if r.Conflict {
		for _, v := range []logic.Bit{0, 1} {
			testable, err := StemStuckAtTestable(n, r.Stem, v, r.Root)
			if err != nil {
				return err
			}
			if testable {
				return fmt.Errorf("atpg: case-1 stem %s s-a-%d is testable at %s",
					r.Stem, v, r.Root)
			}
		}
		return nil
	}
	v := r.Values[0]
	// Find the stem's branch pins into the supergate's traversal and
	// check that at least one is untestable stuck at the implied value.
	inSG := make(map[*network.Gate]bool)
	for _, g := range sg.Gates {
		inSG[g] = true
	}
	anyUntestable := false
	for _, s := range r.Stem.Fanouts() {
		if !inSG[s] {
			continue
		}
		for i := 0; i < s.NumFanins(); i++ {
			if s.Fanin(i) != r.Stem {
				continue
			}
			testable, err := PinStuckAtTestable(n, network.Pin{Gate: s, Index: i}, v, r.Root)
			if err != nil {
				return err
			}
			if !testable {
				anyUntestable = true
			}
		}
	}
	if !anyUntestable {
		return fmt.Errorf("atpg: case-2 stem %s has no untestable branch at %s", r.Stem, r.Root)
	}
	return nil
}
