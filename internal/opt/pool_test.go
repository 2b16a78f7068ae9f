package opt

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"repro/internal/network"
)

// TestPoolsDoNotPinNetworks checks that a finished run leaves nothing
// reachable in the recycled arenas. Each run hands its timer, its
// analyses and its scoring arenas back to sta's sync.Pools, and a pool
// keeps its contents through one GC cycle (in its victim cache). If a
// released arena still pointed at a gate, the whole finished network
// would survive that cycle and inflate the next heap goal. So after one
// runtime.GC, while the arenas still sit in the pools, no gate of the
// finished network and not the network itself may be reachable.
func TestPoolsDoNotPinNetworks(t *testing.T) {
	runs := []struct {
		name string
		run  func(*network.Network)
	}{
		{"Optimize", func(n *network.Network) {
			Optimize(context.Background(), n, lib(), GsgGS, Options{MaxIters: 2})
		}},
		{"OptimizeRounds", func(n *network.Network) {
			OptimizeRounds(context.Background(), n, lib(), GsgGS, Options{MaxIters: 2, Window: 0.05})
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			net, gates := runAndForget(t, r.run)
			runtime.GC()
			if net.Value() != nil {
				t.Errorf("the finished network is still reachable after one GC")
			}
			live := 0
			for _, g := range gates {
				if g.Value() != nil {
					live++
				}
			}
			if live > 0 {
				t.Errorf("%d of %d gates of the finished network are still reachable after one GC", live, len(gates))
			}
		})
	}
}

// runAndForget runs one optimization on a freshly placed circuit and
// returns only weak pointers to the network and its gates, so no strong
// reference outlives the call.
//
//go:noinline
func runAndForget(t *testing.T, run func(*network.Network)) (weak.Pointer[network.Network], []weak.Pointer[network.Gate]) {
	n := prepBench(t, "c432")
	run(n)
	var gates []weak.Pointer[network.Gate]
	n.Gates(func(g *network.Gate) { gates = append(gates, weak.Make(g)) })
	return weak.Make(n), gates
}
