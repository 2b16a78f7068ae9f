package network

import (
	"runtime"
	"testing"
	"weak"

	"repro/internal/logic"
)

// recorder is a test observer that tallies touch and removal events.
type recorder struct {
	touched map[string]int
	removed map[string]int
}

func newRecorder() *recorder {
	return &recorder{touched: map[string]int{}, removed: map[string]int{}}
}

func (r *recorder) GateTouched(g *Gate) { r.touched[g.Name()]++ }
func (r *recorder) GateRemoved(g *Gate) { r.removed[g.Name()]++ }

func (r *recorder) reset() {
	r.touched = map[string]int{}
	r.removed = map[string]int{}
}

func (r *recorder) wantTouched(t *testing.T, op string, names ...string) {
	t.Helper()
	for _, name := range names {
		if r.touched[name] == 0 {
			t.Errorf("%s: expected %q touched, events: %v", op, name, r.touched)
		}
	}
}

func buildObserved(t *testing.T) (*Network, *recorder, *Gate, *Gate, *Gate, *Gate) {
	t.Helper()
	n := New("ev")
	a := n.AddInput("a")
	b := n.AddInput("b")
	g1 := n.AddGate("g1", logic.Nand, a, b)
	g2 := n.AddGate("g2", logic.Nor, g1, a)
	n.MarkOutput(g2)
	rec := newRecorder()
	n.Observe(rec)
	return n, rec, a, b, g1, g2
}

func TestEventsAddGate(t *testing.T) {
	n, rec, a, _, g1, _ := buildObserved(t)
	n.AddGate("g3", logic.And, a, g1)
	rec.wantTouched(t, "AddGate", "g3", "a", "g1")
}

func TestEventsReplaceFanin(t *testing.T) {
	n, rec, _, b, _, g2 := buildObserved(t)
	n.ReplaceFanin(g2, 1, b) // was a
	rec.wantTouched(t, "ReplaceFanin", "a", "b", "g2")

	// A no-op replacement must stay silent.
	rec.reset()
	n.ReplaceFanin(g2, 1, b)
	if len(rec.touched) != 0 {
		t.Errorf("no-op ReplaceFanin fired events: %v", rec.touched)
	}
}

func TestEventsSwapPins(t *testing.T) {
	n, rec, _, _, g1, g2 := buildObserved(t)
	// g1.in1 is driven by b, g2.in1 by a; the swap exchanges them.
	n.SwapPins(Pin{Gate: g1, Index: 1}, Pin{Gate: g2, Index: 1})
	rec.wantTouched(t, "SwapPins", "a", "b", "g1", "g2")
}

func TestEventsInsertInverterAndRemove(t *testing.T) {
	n, rec, _, _, g1, g2 := buildObserved(t)
	inv := n.InsertInverter(Pin{Gate: g2, Index: 0})
	rec.wantTouched(t, "InsertInverter", inv.Name(), "g1", "g2")

	rec.reset()
	n.ReplaceFanin(g2, 0, g1) // detach the inverter again
	n.RemoveGate(inv)
	rec.wantTouched(t, "RemoveGate", "g1") // the inverter's fanin
	if rec.removed[inv.Name()] != 1 {
		t.Errorf("RemoveGate: expected removal event for %q, got %v", inv.Name(), rec.removed)
	}
}

func TestEventsSetSize(t *testing.T) {
	n, rec, _, _, g1, g2 := buildObserved(t)
	n.SetSize(g2, 2)
	rec.wantTouched(t, "SetSize", "g2", "g1", "a")
	if g2.SizeIdx != 2 {
		t.Fatalf("SetSize did not stick: %d", g2.SizeIdx)
	}

	rec.reset()
	n.SetSize(g2, 2) // same size: silent
	if len(rec.touched) != 0 {
		t.Errorf("no-op SetSize fired events: %v", rec.touched)
	}
	_ = g1
}

func TestEventsSetGateType(t *testing.T) {
	n, rec, _, _, g1, _ := buildObserved(t)
	n.SetGateType(g1, logic.Nor)
	rec.wantTouched(t, "SetGateType", "g1", "a", "b")
	if g1.Type != logic.Nor {
		t.Fatalf("SetGateType did not stick: %v", g1.Type)
	}

	rec.reset()
	n.SetGateType(g1, logic.Nor)
	if len(rec.touched) != 0 {
		t.Errorf("no-op SetGateType fired events: %v", rec.touched)
	}

	defer func() {
		if recover() == nil {
			t.Errorf("SetGateType to Input did not panic")
		}
	}()
	n.SetGateType(g1, logic.Input)
}

func TestEventsTransferFanouts(t *testing.T) {
	n, rec, a, b, g1, g2 := buildObserved(t)
	g3 := n.AddGate("g3", logic.And, a, b)
	rec.reset()
	n.TransferFanouts(g1, g3)
	rec.wantTouched(t, "TransferFanouts", "g1", "g3", "g2")
	_ = g2
}

func TestEventsUnobserve(t *testing.T) {
	n, rec, _, _, g1, _ := buildObserved(t)
	n.Unobserve(rec)
	n.SetSize(g1, 1)
	if len(rec.touched) != 0 {
		t.Errorf("events after Unobserve: %v", rec.touched)
	}
}

func TestEventsMultipleObservers(t *testing.T) {
	n, rec, _, _, g1, _ := buildObserved(t)
	rec2 := newRecorder()
	n.Observe(rec2)
	n.SetSize(g1, 1)
	for i, r := range []*recorder{rec, rec2} {
		if r.touched["g1"] == 0 {
			t.Errorf("observer %d missed the SetSize event", i)
		}
	}
}

// tally counts every event it receives into a map it shares with the test,
// so the test can see deliveries without holding the observer itself.
type tally struct {
	name string
	hits map[string]int
}

func (o *tally) GateTouched(*Gate) { o.hits[o.name]++ }
func (o *tally) GateRemoved(*Gate) { o.hits[o.name]++ }

// batchTally is a tally that also takes coalesced batches.
type batchTally struct{ tally }

func (o *batchTally) GateBatch(touched, removed []*Gate) {
	o.hits[o.name] += len(touched) + len(removed)
}

// TestUnobserveReleasesObserver checks that an unobserved observer is
// garbage once the caller drops it, while its network lives on: no slot of
// the observer lists past their lengths may keep it reachable.
func TestUnobserveReleasesObserver(t *testing.T) {
	n, _, _, _, g1, _ := buildObserved(t)
	hits := map[string]int{}
	first := &tally{name: "first", hits: hits}
	middle := &batchTally{tally{name: "middle", hits: hits}}
	last := &tally{name: "last", hits: hits}
	n.Observe(first)
	n.Observe(middle)
	n.Observe(last)
	weakMiddle, weakLast := weak.Make(middle), weak.Make(last)

	n.Unobserve(last)
	n.Unobserve(middle)
	middle, last = nil, nil
	runtime.GC()
	if weakLast.Value() != nil {
		t.Error("the unobserved last observer is still reachable")
	}
	if weakMiddle.Value() != nil {
		t.Error("the unobserved middle (batch) observer is still reachable")
	}

	n.SetSize(g1, 1)
	n.BeginBatch()
	n.SetGateType(g1, logic.And)
	n.EndBatch()
	if hits["first"] == 0 {
		t.Error("the live observer missed events after the removals")
	}
	if hits["middle"] != 0 || hits["last"] != 0 {
		t.Errorf("removed observers got events: %v", hits)
	}
	runtime.KeepAlive(first)
}
