package sta_test

import (
	"math"
	"testing"

	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/sta"
)

// TestScratchPosEpochWrap pins the position table's part of Begin's
// wraparound clause: a position recorded at epoch 1 must not be read
// back 2^32 evaluations later, when the epoch counter returns to 1.
func TestScratchPosEpochWrap(t *testing.T) {
	n := network.New("pos")
	a := n.AddInput("a")
	g := n.AddGate("g", logic.Inv, a)
	h := n.AddGate("h", logic.Inv, g)
	n.MarkOutput(h)
	tm := sta.Analyze(n, library.Default035(), 0)

	sc := sta.NewScratch()
	sc.Begin(tm) // epoch 1
	sc.MarkSeen(g)
	sc.SetPos(g, 7)
	if p, q := sc.Pos(g), sc.Pos(h); p != 7 || q != -1 {
		t.Fatalf("Pos(g), Pos(h) = %d, %d in the recording evaluation, want 7, -1", p, q)
	}
	if sc.MarkSeen(h); sc.Pos(h) != -1 {
		t.Fatalf("Pos(h) = %d for a gate seen without a position, want -1", sc.Pos(h))
	}
	sc.Begin(tm)
	if p := sc.Pos(g); p != -1 {
		t.Fatalf("Pos(g) = %d in the next evaluation, want -1", p)
	}

	// Fast-forward the counter to its last value: the next Begin wraps
	// to epoch 1, the epoch g's position was stamped with.
	sta.SetScratchEpoch(sc, math.MaxUint32)
	sc.Begin(tm)
	if p := sc.Pos(g); p != -1 {
		t.Fatalf("Pos(g) = %d after the epoch wrap: a stale position survived", p)
	}
	sc.MarkSeen(h)
	sc.SetPos(h, 3)
	if p := sc.Pos(h); p != 3 {
		t.Fatalf("Pos(h) = %d after the wrap, want 3", p)
	}
}
