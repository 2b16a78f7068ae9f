package sta_test

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/library"
	"repro/internal/opt"
	"repro/internal/place"
	"repro/internal/sta"
)

// TestWindowedRunDrawsNoTiming checks that an optimizer run whose timer
// never falls back to a full analysis holds one Timing, its timer's own:
// rejected batches (s5378's run rolls back 12) restore from the undo
// log, and the final analysis runs in the timer's arrays, so the run
// draws no Timing from the pool.
func TestWindowedRunDrawsNoTiming(t *testing.T) {
	lib := library.Default035()
	n, err := gen.Generate("s5378")
	if err != nil {
		t.Fatal(err)
	}
	place.Place(n, lib, place.Options{Seed: 1, MovesPerCell: 5})
	drawn := sta.DrawnTimings()
	res := opt.OptimizeRounds(context.Background(), n, lib, opt.GsgGS, opt.Options{Window: 0.005, Workers: 1})
	if res.Timer.FullAnalyses != 1 {
		t.Fatalf("the run fell back to %d full analyses; it tests nothing", res.Timer.FullAnalyses-1)
	}
	if res.Swaps+res.Resizes == 0 || res.Timer.IncrementalUpdates == 0 {
		t.Fatalf("the run committed nothing: %+v", res)
	}
	if d := sta.DrawnTimings() - drawn; d != 0 {
		t.Fatalf("the run drew %d Timings from the pool", d)
	}
}
