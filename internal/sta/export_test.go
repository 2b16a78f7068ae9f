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

// DrawnTimings returns how many Timings have been drawn from the pool for
// analyses and checkpoint copies, beyond incremental timers' own views.
func DrawnTimings() int64 { return drawnTimings.Load() }

// CheckpointCopied reports whether the timer's checkpoint is held as a
// whole copy, taken before a fallback, instead of an undo log.
func CheckpointCopied(it *Incremental) bool { return it.ckpt.copied }

// PinTableHit reports whether in-pin j of s, fed by d, reads its wire
// delay from the pin table rather than through the scan.
func PinTableHit(t *Timing, d, s *network.Gate, j int) bool {
	_, ok := t.pinHit(d, s, j)
	return ok
}

// Level returns the timer's cached logic level of g.
func Level(it *Incremental, g *network.Gate) int32 { return it.levelOf(g) }

// SetScratchEpoch sets the arena's evaluation epoch, so a test can drive
// it across the wrap.
func SetScratchEpoch(sc *Scratch, epoch uint32) { sc.epoch = epoch }
