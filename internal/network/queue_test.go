package network

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/logic"
)

// naiveTopo is the reference for TopoOrder's determinism contract:
// Kahn's algorithm over the gates in the set, always emitting the ready
// gate with the smallest dense ID, found by a linear scan.
func naiveTopo(gates []*Gate, in func(*Gate) bool) []*Gate {
	pending := map[*Gate]int{}
	var ready []*Gate
	for _, g := range gates {
		for _, f := range g.fanins {
			if in(f) {
				pending[g]++
			}
		}
		if pending[g] == 0 {
			ready = append(ready, g)
		}
	}
	var order []*Gate
	for len(ready) > 0 {
		m := 0
		for i, g := range ready {
			if g.id < ready[m].id {
				m = i
			}
		}
		g := ready[m]
		ready = append(ready[:m], ready[m+1:]...)
		order = append(order, g)
		for _, s := range g.fanouts {
			if !in(s) {
				continue
			}
			if pending[s]--; pending[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return order
}

// TestTopoOrderMinIDReady checks TopoOrder and TopoOrderAmong against
// naiveTopo on random DAGs whose creation order rewiring has made
// non-topological, so the ready-set ties really go through the queue.
func TestTopoOrderMinIDReady(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := New("dag")
		var gates []*Gate
		for i := 0; i < 12; i++ {
			gates = append(gates, n.AddInput(fmt.Sprintf("i%d", i)))
		}
		for i := 0; i < 200; i++ {
			a, b := gates[rng.Intn(len(gates))], gates[rng.Intn(len(gates))]
			gates = append(gates, n.AddGate(fmt.Sprintf("g%d", i), logic.Nand, a, b))
		}
		for k := 0; k < 150; k++ {
			g := gates[12+rng.Intn(200)]
			idx := rng.Intn(2)
			old := g.fanins[idx]
			n.ReplaceFanin(g, idx, gates[rng.Intn(len(gates))])
			if n.CheckAcyclic() != nil {
				n.ReplaceFanin(g, idx, old)
			}
		}
		all := func(*Gate) bool { return true }
		sameOrder(t, "TopoOrder", n.TopoOrder(), naiveTopo(n.GateSlice(), all))

		in := map[*Gate]bool{}
		var subset []*Gate
		for _, g := range n.GateSlice() {
			if rng.Intn(3) > 0 {
				in[g] = true
				subset = append(subset, g)
			}
		}
		member := func(g *Gate) bool { return in[g] }
		sameOrder(t, "TopoOrderAmong", TopoOrderAmong(subset, member), naiveTopo(subset, member))
	}
}

func sameOrder(t *testing.T, what string, got, want []*Gate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d gates, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d holds %s, reference %s", what, i, got[i], want[i])
		}
	}
}
