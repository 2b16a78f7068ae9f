package sta

import (
	"repro/internal/library"
	"repro/internal/network"
)

// Restart closes it and re-seeds the same timer — its Timing arrays, pin
// table and queues included — on n, the reuse a pooled timer goes
// through, without the pool's nondeterminism.
func Restart(it *Incremental, n *network.Network, lib *library.Library, clock float64) {
	it.Close()
	it.start(n, lib, clock, nil)
}

// SetGeneration sets the Timing's net-generation counter, so a test can
// drive it across the wrap.
func SetGeneration(t *Timing, gen uint32) { t.gen = gen }
