package supergate_test

// How the network groups mutations into rounds (network/events.go) must
// not be observable to the supergate cache: one round per window and one
// round per mutator call must leave it in the same state. This property
// test runs the same random mutation script on two copies of one network,
// on one inside a single window per step and on the other with every
// mutator call its own round, and requires both caches to equal a fresh
// Extract after every step.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/network"
	"repro/internal/rewire"
	"repro/internal/supergate"
)

// mutateStep applies one step of a random mutation script. Its choices
// depend only on the network and rng, so two identical networks driven
// by identically seeded rngs take identical steps.
func mutateStep(n *network.Network, rng *rand.Rand) {
	nt := supergate.Extract(n).NonTrivial()
	for m := 1 + rng.Intn(5); m > 0; m-- {
		switch op := rng.Intn(8); {
		case op < 5 && len(nt) > 0: // random legal swap
			if swaps := rewire.Enumerate(nt[rng.Intn(len(nt))]); len(swaps) > 0 {
				rewire.Apply(n, swaps[rng.Intn(len(swaps))])
			}
		case op < 6: // inverter insertion touches a narrow region
			if g := randomLogicGate(n, rng); g != nil && g.NumFanins() > 0 {
				n.InsertInverter(network.Pin{Gate: g, Index: rng.Intn(g.NumFanins())})
			}
		case op < 7: // a resize reaches the cache as an ignored list
			if g := randomLogicGate(n, rng); g != nil {
				n.SetSize(g, (g.SizeIdx+1)%3)
			}
		default: // sweep dead logic: removals inside the round
			n.Sweep()
			return
		}
	}
}

func TestBatchedDeliveryMatchesPerEvent(t *testing.T) {
	steps := 12
	seeds := 4
	if testing.Short() {
		steps, seeds = 5, 2
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		windowed := gen.FromProfile(testProfile(seed * 31))
		perCall := gen.FromProfile(testProfile(seed * 31))
		caches := map[string]*supergate.Cache{
			"windowed": supergate.NewCache(windowed),
			"per-call": supergate.NewCache(perCall),
		}
		rngW := rand.New(rand.NewSource(seed * 1543))
		rngP := rand.New(rand.NewSource(seed * 1543))
		for step := 0; step < steps; step++ {
			windowed.BeginBatch()
			mutateStep(windowed, rngW)
			windowed.EndBatch()
			mutateStep(perCall, rngP)

			when := fmt.Sprintf("seed %d step %d", seed, step)
			if w, p := signature(supergate.Extract(windowed)), signature(supergate.Extract(perCall)); w != p {
				t.Fatalf("%s: the two scripts fell out of step", when)
			}
			checkMirror(t, windowed, caches["windowed"], when+" (windowed)")
			checkMirror(t, perCall, caches["per-call"], when+" (per call)")
		}
		// Both caches must have exercised the incremental path, or the
		// test proved nothing about invalidation.
		for name, c := range caches {
			if st := c.Stats(); st.IncrementalFlushes == 0 {
				t.Errorf("%s cache never flushed incrementally: %+v", name, st)
			}
			c.Close()
		}
	}
}
