package network

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"weak"

	"repro/internal/logic"
)

// round is one delivered round of events, by gate name.
type round struct{ touched, resized, removed []string }

// recorder is a test observer that keeps every round it receives.
type recorder struct{ rounds []round }

func names(gs []*Gate) []string {
	out := []string{}
	for _, g := range gs {
		out = append(out, g.Name())
	}
	return out
}

func (r *recorder) GatesChanged(touched, resized, removed []*Gate) {
	r.rounds = append(r.rounds, round{names(touched), names(resized), names(removed)})
}

func (r *recorder) reset() { r.rounds = nil }

// wantRounds checks that exactly the given rounds arrived, in order,
// each list in order.
func (r *recorder) wantRounds(t *testing.T, op string, want ...round) {
	t.Helper()
	norm := func(rs []round) string {
		var b strings.Builder
		for _, x := range rs {
			fmt.Fprintf(&b, "{touched %v resized %v removed %v} ", x.touched, x.resized, x.removed)
		}
		return b.String()
	}
	for i := range want {
		for _, l := range []*[]string{&want[i].touched, &want[i].resized, &want[i].removed} {
			if *l == nil {
				*l = []string{}
			}
		}
	}
	if got, w := norm(r.rounds), norm(want); got != w {
		t.Errorf("%s: rounds\n got  %s\n want %s", op, got, w)
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
	rec := &recorder{}
	n.Observe(rec)
	return n, rec, a, b, g1, g2
}

func TestEventsAddGate(t *testing.T) {
	n, rec, a, _, g1, _ := buildObserved(t)
	n.AddGate("g3", logic.And, a, g1)
	rec.wantRounds(t, "AddGate", round{touched: []string{"g3", "a", "g1"}})
}

func TestEventsReplaceFanin(t *testing.T) {
	n, rec, _, b, _, g2 := buildObserved(t)
	n.ReplaceFanin(g2, 1, b) // was a
	rec.wantRounds(t, "ReplaceFanin", round{touched: []string{"a", "b", "g2"}})

	// A no-op replacement must stay silent.
	rec.reset()
	n.ReplaceFanin(g2, 1, b)
	rec.wantRounds(t, "no-op ReplaceFanin")
}

func TestEventsSwapPins(t *testing.T) {
	n, rec, _, _, g1, g2 := buildObserved(t)
	// g1.in1 is driven by b, g2.in1 by a; the swap exchanges them, in one
	// round although it rewires two pins.
	n.SwapPins(Pin{Gate: g1, Index: 1}, Pin{Gate: g2, Index: 1})
	rec.wantRounds(t, "SwapPins", round{touched: []string{"b", "a", "g1", "g2"}})
}

func TestEventsInsertInverterAndRemove(t *testing.T) {
	n, rec, _, _, g1, g2 := buildObserved(t)
	inv := n.InsertInverter(Pin{Gate: g2, Index: 0})
	rec.wantRounds(t, "InsertInverter", round{touched: []string{inv.Name(), "g1", "g2"}})

	rec.reset()
	n.ReplaceFanin(g2, 0, g1) // detach the inverter again
	n.RemoveGate(inv)
	rec.wantRounds(t, "ReplaceFanin, RemoveGate",
		round{touched: []string{inv.Name(), "g1", "g2"}},
		round{touched: []string{"g1"}, removed: []string{inv.Name()}}) // the inverter's fanin
}

func TestEventsSetSize(t *testing.T) {
	n, rec, _, _, _, g2 := buildObserved(t)
	n.SetSize(g2, 2)
	rec.wantRounds(t, "SetSize", round{resized: []string{"g2", "g1", "a"}})
	if g2.SizeIdx != 2 {
		t.Fatalf("SetSize did not stick: %d", g2.SizeIdx)
	}

	rec.reset()
	n.SetSize(g2, 2) // same size: silent
	rec.wantRounds(t, "no-op SetSize")
}

func TestEventsSetGateType(t *testing.T) {
	n, rec, _, _, g1, _ := buildObserved(t)
	n.SetGateType(g1, logic.Nor)
	rec.wantRounds(t, "SetGateType", round{touched: []string{"g1", "a", "b"}})
	if g1.Type != logic.Nor {
		t.Fatalf("SetGateType did not stick: %v", g1.Type)
	}

	rec.reset()
	n.SetGateType(g1, logic.Nor)
	rec.wantRounds(t, "no-op SetGateType")

	defer func() {
		if recover() == nil {
			t.Errorf("SetGateType to Input did not panic")
		}
	}()
	n.SetGateType(g1, logic.Input)
}

func TestEventsTransferFanouts(t *testing.T) {
	n, rec, a, b, g1, _ := buildObserved(t)
	g3 := n.AddGate("g3", logic.And, a, b)
	rec.reset()
	n.TransferFanouts(g1, g3)
	rec.wantRounds(t, "TransferFanouts", round{touched: []string{"g1", "g3", "g2"}})
}

func TestEventsUnobserve(t *testing.T) {
	n, rec, _, _, g1, _ := buildObserved(t)
	n.Unobserve(rec)
	n.SetSize(g1, 1)
	rec.wantRounds(t, "SetSize after Unobserve")
}

func TestEventsMultipleObservers(t *testing.T) {
	n, rec, _, _, g1, _ := buildObserved(t)
	rec2 := &recorder{}
	n.Observe(rec2)
	n.SetSize(g1, 1)
	for _, r := range []*recorder{rec, rec2} {
		r.wantRounds(t, "SetSize", round{resized: []string{"g1", "a", "b"}})
	}
}

// tally counts every gate it receives into a map it shares with the test,
// so the test can see deliveries without holding the observer itself.
type tally struct {
	name string
	hits map[string]int
}

func (o *tally) GatesChanged(touched, resized, removed []*Gate) {
	o.hits[o.name] += len(touched) + len(resized) + len(removed)
}

// TestUnobserveReleasesObserver checks that an unobserved observer is
// garbage once the caller drops it, while its network lives on: no slot of
// the observer list past its length may keep it reachable.
func TestUnobserveReleasesObserver(t *testing.T) {
	n, _, _, _, g1, _ := buildObserved(t)
	hits := map[string]int{}
	first := &tally{name: "first", hits: hits}
	middle := &tally{name: "middle", hits: hits}
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
		t.Error("the unobserved middle observer is still reachable")
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
