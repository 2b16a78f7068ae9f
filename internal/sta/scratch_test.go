package sta

import (
	"math"
	"testing"

	"repro/internal/logic"
)

// TestScratchEpochRollover pins the wraparound clause in Begin: after
// 2^32 evaluations the epoch counter returns to values used by long-dead
// evaluations, so stale stamps written back then would alias the new
// epoch and resurrect their entries. Begin must clear the stamp array
// at the wrap. The test marks a gate seen at epoch 1, fast-forwards the
// counter to MaxUint32, and checks the next Begin — which lands on
// epoch 1 again, the exact aliasing scenario — does not see it.
func TestScratchEpochRollover(t *testing.T) {
	n := chain()
	l := lib()
	tm := Analyze(n, l, 0)
	g := n.FindGate("i1")

	sc := NewScratch()
	sc.Begin(tm) // epoch 0 -> 1
	if sc.epoch != 1 {
		t.Fatalf("first Begin: epoch = %d, want 1", sc.epoch)
	}
	if !sc.MarkSeen(g) {
		t.Fatal("first MarkSeen returned false")
	}
	if sc.MarkSeen(g) {
		t.Fatal("second MarkSeen in the same evaluation returned true")
	}

	// Simulate 2^32-1 further evaluations.
	sc.epoch = math.MaxUint32

	sc.Begin(tm) // wraps: stamps cleared, epoch back to 1
	if sc.epoch != 1 {
		t.Fatalf("post-rollover epoch = %d, want 1", sc.epoch)
	}
	if !sc.MarkSeen(g) {
		t.Error("stale seen-stamp survived the epoch rollover")
	}
}

// TestScratchReuseAfterPut covers the GetScratch/PutScratch lifecycle:
// an arena recycled through the pool must not leak the previous
// evaluation's entries into the next one, and Begin must grow the stamp
// array to cover gates created after the arena was first sized.
func TestScratchReuseAfterPut(t *testing.T) {
	n := chain()
	l := lib()
	tm := Analyze(n, l, 0)
	g := n.FindGate("i2")

	sc := GetScratch()
	sc.Begin(tm)
	sc.MarkSeen(g)
	PutScratch(sc)

	// The pool may or may not hand the same arena back; the contract is
	// the same either way — Begin opens a clean evaluation.
	sc2 := GetScratch()
	defer PutScratch(sc2)
	sc2.Begin(tm)
	if !sc2.MarkSeen(g) {
		t.Error("recycled arena leaked a seen-stamp from a previous evaluation")
	}

	// Gates created after the arena was sized: the next Begin must cover
	// their IDs (indexing them before it would panic).
	ReleaseTiming(tm)
	fresh := n.AddGate("fresh", logic.Inv, n.FindGate("f"))
	n.MarkOutput(fresh)
	tm = Analyze(n, l, 0)
	sc2.Begin(tm)
	if !sc2.MarkSeen(fresh) {
		t.Error("fresh gate already marked seen in a new evaluation")
	}
	ReleaseTiming(tm)
}
