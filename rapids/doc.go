// Package rapids is the public, embeddable facade over the whole
// post-placement flow of "Fast Post-placement Rewiring Using Easily
// Detectable Functional Symmetries" (Chang, Cheng, Suaris,
// Marek-Sadowska; DAC 2000): load or generate a mapped circuit, place
// it, and optimize it with supergate-based rewiring and/or gate sizing —
// without touching the placement.
//
// It is the only supported import surface of this module; everything
// under internal/ is implementation detail and can change without
// notice. The typical flow is three calls:
//
//	c, err := rapids.Generate("alu2")        // or rapids.LoadFile("mine.blif")
//	c.Place()
//	res, err := c.Optimize(ctx,
//	        rapids.WithStrategy(rapids.GsgGS),
//	        rapids.WithProgress(func(ev rapids.Event) { log.Println(ev) }))
//
// # Cancellation and anytime semantics
//
// Optimize honors its context at phase and round boundaries. Because
// every committed batch of moves has already passed a global timing
// guard before the boundary is reached, a cancelled or deadline-expired
// run returns the best-so-far network: still functionally equivalent to
// the input, never slower than it, with the returned Result describing
// exactly the work that was committed. No goroutine of the scoring pool
// outlives the call.
//
// # Progress events
//
// WithProgress subscribes a callback to the run's typed Event stream:
// one EventStart, one EventPhase per optimizer phase (or per round
// under WithRegions), one EventVerify when verification runs, and one
// EventDone carrying the final *Result. Events are delivered
// synchronously on the optimizing goroutine, so callbacks must be fast
// and must not call back into the Circuit.
//
// # Stability
//
// The exported API of this package follows the compatibility contract in
// DESIGN.md §4: additions are allowed, renames/removals and semantic
// changes of existing symbols are breaking and must update the
// rapids/api.txt snapshot that CI enforces.
package rapids
