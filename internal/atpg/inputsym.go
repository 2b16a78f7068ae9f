package atpg

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/rewire"
	"repro/internal/supergate"
)

// InputSymmetries counts the NES and ES symmetric pairs of primary inputs
// with respect to the single output gate root, the classical problem of
// Pomeranz & Reddy that §2 of the paper contrasts with. It enumerates the
// cone's truth table, so the support must not exceed MaxOracleInputs.
func InputSymmetries(n *network.Network, root *network.Gate) (nes, es int, err error) {
	tt, k, err := coneTruthTable(n, root)
	if err != nil {
		return 0, 0, err
	}
	nes, es, _ = symmetricPairs(tt, k)
	return nes, es, nil
}

// coneTruthTable enumerates root's function over its k primary-input
// support variables: bit i of the index is the i-th support input.
func coneTruthTable(n *network.Network, root *network.Gate) (tt []bool, k int, err error) {
	support := n.SupportOf(root)
	k = len(support)
	if k > MaxOracleInputs {
		return nil, 0, fmt.Errorf("atpg: support %d exceeds oracle limit %d", k, MaxOracleInputs)
	}
	tt = make([]bool, 1<<k)
	assignment := make(map[*network.Gate]logic.Bit, k)
	for idx := range tt {
		for i, pi := range support {
			assignment[pi] = logic.Bit(idx >> i & 1)
		}
		tt[idx] = evalWithFault(root, assignment, network.Pin{}, nil, 0) == 1
	}
	return tt, k, nil
}

// symmetricPairs counts the variable pairs of the k-input truth table tt
// that are NES, that are ES, and that are both.
func symmetricPairs(tt []bool, k int) (nes, es, both int) {
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			isNES, isES := NES(tt, i, j), ES(tt, i, j)
			if isNES {
				nes++
			}
			if isES {
				es++
			}
			if isNES && isES {
				both++
			}
		}
	}
	return nes, es, both
}

// SymmetryComparison quantifies §2's motivation: "the number of detected
// symmetries increases dramatically since k is only a sub-function of h".
// It counts the primary-input symmetric pairs over all oracle-sized output
// cones (the classical target) against the internal-pin swappable pairs
// the supergate decomposition exposes.
type SymmetryComparison struct {
	// InputPairs is the number of symmetric (NES or ES) PI pairs summed
	// over the primary-output cones that fit the exhaustive oracle.
	InputPairs int
	// ConesChecked / ConesSkipped partition the POs by oracle size.
	ConesChecked, ConesSkipped int
	// PinPairs is the number of swappable internal pin pairs from
	// supergate extraction over the whole network.
	PinPairs int
}

// CompareSymmetries computes a SymmetryComparison for n.
func CompareSymmetries(n *network.Network) SymmetryComparison {
	var c SymmetryComparison
	for _, po := range n.Outputs() {
		tt, k, err := coneTruthTable(n, po)
		if err != nil {
			c.ConesSkipped++
			continue
		}
		c.ConesChecked++
		// Count pairs symmetric in either sense, without double counting.
		nes, es, both := symmetricPairs(tt, k)
		c.InputPairs += nes + es - both
	}
	ext := supergate.Extract(n)
	for _, sg := range ext.Supergates {
		c.PinPairs += len(rewire.Enumerate(sg))
	}
	return c
}
