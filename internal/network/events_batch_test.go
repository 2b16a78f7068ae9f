package network

import (
	"testing"

	"repro/internal/logic"
)

// TestBatchDedupFirstTouchOrder: a window coalesces repeated touches of
// the same gate into one entry at its first-touch position, in each list,
// and a gate both resized and rewired sits in both lists.
func TestBatchDedupFirstTouchOrder(t *testing.T) {
	n, rec, _, b, g1, g2 := buildObserved(t)

	n.BeginBatch()
	n.SetSize(g2, 1)             // resizes g2, then reaches its drivers g1, a
	n.SetGateType(g1, logic.Nor) // touches g1, then its drivers a, b
	n.ReplaceFanin(g2, 1, b)     // touches a (was the driver), b, g2
	n.SetSize(g2, 2)             // reaches g2, g1, b: only b is new
	n.EndBatch()

	rec.wantRounds(t, "window", round{
		touched: []string{"g1", "a", "b", "g2"},
		resized: []string{"g2", "g1", "a", "b"},
	})
}

// TestBatchTouchedThenRemoved: a gate mutated and then deleted inside
// one window appears in touched and in removed.
func TestBatchTouchedThenRemoved(t *testing.T) {
	n, rec, a, b, g1, _ := buildObserved(t)
	g3 := n.AddGate("g3", logic.And, a, g1)
	rec.reset()

	n.BeginBatch()
	n.ReplaceFanin(g3, 0, b) // touches a, b, g3
	n.SetSize(g3, 2)         // reaches g3, b, g1
	n.RemoveGate(g3)         // touches its drivers b, g1
	n.EndBatch()

	rec.wantRounds(t, "window", round{
		touched: []string{"a", "b", "g3", "g1"},
		resized: []string{"g3", "b", "g1"},
		removed: []string{"g3"},
	})
}

// TestRoundRemovalsLast: removals come in their own list, in removal
// order, whatever was touched after them in the round, so an observer
// applies every touch before any removal.
func TestRoundRemovalsLast(t *testing.T) {
	n, rec, a, b, g1, g2 := buildObserved(t)
	g3 := n.AddGate("g3", logic.And, a, g1)
	g4 := n.AddGate("g4", logic.Inv, g3)
	rec.reset()

	n.BeginBatch()
	n.RemoveGate(g4)         // touches g3
	n.RemoveGate(g3)         // touches a, g1
	n.ReplaceFanin(g2, 1, b) // touches a, b, g2 after both removals
	n.EndBatch()

	rec.wantRounds(t, "window", round{
		touched: []string{"g3", "a", "g1", "b", "g2"},
		removed: []string{"g4", "g3"},
	})
}

// TestRoundPerMutatorCall: outside a window every mutator call is one
// round, compound ones (SwapPins, InsertInverter, TransferFanouts, Sweep)
// included, and nothing carries over from one round to the next.
func TestRoundPerMutatorCall(t *testing.T) {
	n, rec, a, b, g1, g2 := buildObserved(t)
	n.SetSize(g1, 1)
	n.SetSize(g1, 2)
	inv := n.InsertInverter(Pin{Gate: g2, Index: 1})
	g3 := n.AddGate("g3", logic.Inv, b)
	n.RemoveGate(g3)
	rec.wantRounds(t, "five calls",
		round{resized: []string{"g1", "a", "b"}},
		round{resized: []string{"g1", "a", "b"}},
		round{touched: []string{inv.Name(), "a", "g2"}},
		round{touched: []string{"g3", "b"}},
		round{touched: []string{"b"}, removed: []string{"g3"}})

	// Sweep removes a chain of dead gates in one round.
	g4 := n.AddGate("g4", logic.And, a, g1)
	n.AddGate("g5", logic.Inv, g4)
	rec.reset()
	if removed := n.Sweep(); removed != 2 {
		t.Fatalf("Sweep removed %d gates, want 2", removed)
	}
	rec.wantRounds(t, "Sweep", round{touched: []string{"g4", "a", "g1"}, removed: []string{"g5", "g4"}})
}

// TestBatchNesting: only the outermost EndBatch delivers, an empty
// window delivers nothing, and a fresh window after a delivery starts
// empty.
func TestBatchNesting(t *testing.T) {
	n, rec, _, _, g1, g2 := buildObserved(t)

	n.BeginBatch()
	n.SetSize(g1, 1)
	n.BeginBatch()
	n.SetSize(g2, 1)
	n.EndBatch() // inner: must not deliver
	rec.wantRounds(t, "inner EndBatch")
	n.EndBatch() // outer: one coalesced delivery
	rec.wantRounds(t, "outer EndBatch", round{resized: []string{"g1", "a", "b", "g2"}})

	// An empty window delivers nothing.
	rec.reset()
	n.BeginBatch()
	n.EndBatch()
	rec.wantRounds(t, "empty window")

	// The next window must not resurrect the first window's gates.
	n.BeginBatch()
	n.SetSize(g2, 2)
	n.EndBatch()
	rec.wantRounds(t, "second window", round{resized: []string{"g2", "g1", "a"}})
}

// TestUnobserveInsideWindowForfeits: an observer that leaves inside a
// window gets none of its events; the others still get the round.
func TestUnobserveInsideWindowForfeits(t *testing.T) {
	n, rec, _, _, g1, _ := buildObserved(t)
	other := &recorder{}
	n.Observe(other)

	n.BeginBatch()
	n.SetGateType(g1, logic.Nor)
	n.Unobserve(rec)
	n.EndBatch()

	rec.wantRounds(t, "unobserved inside the window")
	other.wantRounds(t, "still observing", round{touched: []string{"g1", "a", "b"}})
}

// TestUnobservedNetworkBuffersNothing: without observers no mutation
// allocates round buffers, so Clone, the generators and the parsers pay
// nothing for the event layer.
func TestUnobservedNetworkBuffersNothing(t *testing.T) {
	n := New("quiet")
	a := n.AddInput("a")
	b := n.AddInput("b")
	g1 := n.AddGate("g1", logic.Nand, a, b)
	g2 := n.AddGate("g2", logic.Nor, g1, a)
	n.MarkOutput(g2)
	n.BeginBatch()
	n.SwapPins(Pin{Gate: g1, Index: 1}, Pin{Gate: g2, Index: 1})
	inv := n.InsertInverter(Pin{Gate: g2, Index: 0})
	n.SetSize(g2, 1)
	n.EndBatch()
	n.ReplaceFanin(g2, 0, g1)
	n.RemoveGate(inv)
	if n.roundStamp != nil || n.roundTouched != nil || n.roundResized != nil || n.roundRemoved != nil {
		t.Errorf("an unobserved network buffered a round: stamp %d, touched %d, resized %d, removed %d",
			len(n.roundStamp), len(n.roundTouched), len(n.roundResized), len(n.roundRemoved))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		n.SetSize(g2, 2)
		n.SetSize(g2, 1)
		n.SwapPins(Pin{Gate: g1, Index: 1}, Pin{Gate: g2, Index: 1})
	}); allocs != 0 {
		t.Errorf("unobserved mutations allocated %.1f times per run", allocs)
	}
}

// TestEndBatchUnbalancedPanics: closing a window that was never opened
// is a programming error.
func TestEndBatchUnbalancedPanics(t *testing.T) {
	n, _, _, _, _, _ := buildObserved(t)
	defer func() {
		if recover() == nil {
			t.Error("EndBatch without BeginBatch did not panic")
		}
	}()
	n.EndBatch()
}
