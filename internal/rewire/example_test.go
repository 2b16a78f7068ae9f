package rewire_test

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/rewire"
	"repro/internal/sim"
	"repro/internal/supergate"
)

// ExampleApply swaps two symmetric pins and proves the function unchanged.
func ExampleApply() {
	n := network.New("example")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	inner := n.AddGate("inner", logic.Nor, a, b)
	f := n.AddGate("f", logic.Nor, n.AddGate("m", logic.Inv, inner), c)
	n.MarkOutput(f)
	before, _ := n.Clone()

	ext := supergate.Extract(n)
	sg := ext.Of(f)
	swaps := rewire.Enumerate(sg)
	fmt.Printf("%d swappable pairs\n", len(swaps))

	rewire.Apply(n, swaps[0])
	ce, _ := sim.EquivalentExhaustive(before, n)
	fmt.Println("equivalent after swap:", ce == nil)
	// Output:
	// 3 swappable pairs
	// equivalent after swap: true
}
