package opt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/supergate"
)

// requireSameMoves asserts that two rankings are equal bit for bit:
// gains, sites, sizes and swaps, in order.
func requireSameMoves(t *testing.T, step string, got, want []Move) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d moves, fresh engine %d", step, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g.Gain) != math.Float64bits(w.Gain) || g.IsSwap != w.IsSwap ||
			g.Swap != w.Swap || g.Gate != w.Gate || g.Size != w.Size {
			t.Fatalf("%s: move %d is %+v, fresh engine %+v", step, i, g, w)
		}
	}
}

// TestScoreReuseMatchesFreshRanking drives the optimizer's phase loop by
// hand on one engine — rank, apply, then either roll the batch back or
// accept part of it — and checks every ranking the engine serves, from
// its score buffers or not, against a fresh engine's Moves on the same
// state. A phase on a rolled-back state must take every site it already
// scored from the buffers; an accepted batch must make every score stale.
func TestScoreReuseMatchesFreshRanking(t *testing.T) {
	for _, name := range []string{"c1908", "s5378"} {
		for _, window := range []float64{0, 0.005} {
			t.Run(fmt.Sprintf("%s/window=%g", name, window), func(t *testing.T) {
				n := prepBench(t, name)
				sizing.SeedForLoad(n, lib(), 0)
				inc := sta.NewIncremental(n, lib(), 0)
				defer inc.Release()
				cache := supergate.NewCache(n)
				defer cache.Close()
				eng := NewEngine(2)
				defer eng.Release()
				o := Options{MaxSwapLeaves: 48, Window: window}
				rng := rand.New(rand.NewSource(int64(len(name))))
				var res Result
				rank := func(step string, obj sizing.Objective) []Move {
					t.Helper()
					tm, ext := inc.Timing(), cache.Extraction()
					got := eng.Moves(tm, GsgGS, obj, o, ext)
					fresh := NewEngine(1)
					defer fresh.Release()
					requireSameMoves(t, step, got, fresh.Moves(tm, GsgGS, obj, o, ext))
					return got
				}
				reused := 0
				for step := 0; step < 6; step++ {
					inc.Update()
					// A sum-slack phase whose whole batch is rejected.
					label := fmt.Sprintf("step %d", step)
					ranked := rank(label+" sum-slack", sizing.SumSlack)
					inc.Checkpoint()
					_, undos := applyMoves(n, inc.Timing(), ranked, sizing.SumSlack, &res, 0, eng)
					inc.Update()
					undoAll(n, undos)
					cache.Rollback()
					inc.Rollback()

					// The next phase runs on the restored state.
					before := eng.Stats()
					ranked = rank(label+" min-slack after rollback", sizing.MinSlack)
					after := eng.Stats()
					if after.Candidates() == before.Candidates() {
						reused++
					} else if window == 0 {
						// Unwindowed, the min-slack margin is inside the
						// sum-slack one, so every site was just scored.
						t.Fatalf("%s: the phase after a rollback scored %d candidates again",
							label, after.Candidates()-before.Candidates())
					}

					// Accept a few of its moves; every score is stale now.
					applyMoves(n, inc.Timing(), ranked, sizing.MinSlack, &res, 1+rng.Intn(4), eng)
					n.Sweep()
				}
				if reused == 0 {
					t.Fatal("no phase took its scores from the buffers")
				}
			})
		}
	}
}

// TestSelectSmallestMatchesSort checks the windowed budget's selection
// against a full sort on random sites with many tied slacks.
func TestSelectSmallestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		sites := make([]rankedSite, 1+rng.Intn(300))
		for i := range sites {
			sites[i] = rankedSite{slack: float64(rng.Intn(8)), id: rng.Intn(50), swap: i % 2 * (i + 1)}
		}
		k := rng.Intn(len(sites) + 1)
		want := slices.Clone(sites)
		slices.SortFunc(want, cmpRanked)
		got := slices.Clone(sites)
		selectSmallest(got, k, cmpRanked)
		slices.SortFunc(got[:k], cmpRanked)
		if !slices.Equal(got[:k], want[:k]) {
			t.Fatalf("trial %d: selected %v, want %v", trial, got[:k], want[:k])
		}
	}
}
