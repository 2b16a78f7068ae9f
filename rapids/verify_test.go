package rapids

// The facade's verification failure branches: the progress hook changes
// the network under the optimizer, which the final check must catch.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/sim"
)

// optimizeTampered optimizes a placed alu2 and calls tamper on its
// network at the first EventPhase. It returns the circuit, an untouched
// copy of its input, and Optimize's outcome.
func optimizeTampered(t *testing.T, tamper func(n *network.Network)) (*Circuit, *Circuit, *Result, error) {
	t.Helper()
	c, err := Generate("alu2")
	if err != nil {
		t.Fatal(err)
	}
	c.Place(PlaceMoves(5))
	orig := c.Clone()
	tampered := false
	res, err := c.Optimize(context.Background(), WithIters(2), WithWorkers(1),
		WithProgress(func(ev Event) {
			if ev.Kind == EventPhase && !tampered {
				tampered = true
				tamper(c.net)
			}
		}))
	if !tampered {
		t.Fatal("no EventPhase to tamper at")
	}
	return c, orig, res, err
}

func TestOptimizeVerifyCatchesChangedFunction(t *testing.T) {
	c, orig, res, err := optimizeTampered(t, func(n *network.Network) {
		// Point a PO gate's first pin at a PI it was not reading.
		for _, g := range n.Outputs() {
			if g.IsInput() {
				continue
			}
			for _, pi := range n.Inputs() {
				if g.FaninIndexOf(pi) < 0 {
					n.ReplaceFanin(g, 0, pi)
					return
				}
			}
		}
		t.Fatal("no PO gate to rewire")
	})
	if res.Verification != VerifyFailed {
		t.Fatalf("Verification = %v, want %v", res.Verification, VerifyFailed)
	}
	if err == nil || !strings.Contains(err.Error(), "changed function") {
		t.Fatalf("err = %v, want a changed-function error", err)
	}
	ce, cerr := sim.Capture(orig.net, res.VerifyRounds, verifySeed).Check(c.net)
	if cerr != nil || ce == nil {
		t.Fatalf("re-check: ce=%v err=%v", ce, cerr)
	}
	if !strings.Contains(err.Error(), ce.String()) {
		t.Fatalf("error %q does not carry counterexample %v", err, ce)
	}
	a, b := sim.Eval(orig.net, ce.Inputs)[ce.Output], sim.Eval(c.net, ce.Inputs)[ce.Output]
	if a != ce.A || b != ce.B || a == b {
		t.Fatalf("counterexample %v does not separate the networks: %d vs %d", ce, a, b)
	}
}

func TestOptimizeVerifyReportsInterfaceChange(t *testing.T) {
	_, _, res, err := optimizeTampered(t, func(n *network.Network) {
		n.Rename(n.Outputs()[0], "renamed_po")
	})
	if res.Verification != VerifyFailed {
		t.Fatalf("Verification = %v, want %v", res.Verification, VerifyFailed)
	}
	if err == nil || !strings.Contains(err.Error(), "verification of alu2") || !strings.Contains(err.Error(), "PO sets differ") {
		t.Fatalf("err = %v, want an interface verification error", err)
	}
}
