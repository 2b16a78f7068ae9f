// Benchmarks regenerating the paper's evaluation: one benchmark per table
// or figure (see DESIGN.md §6 for the experiment index).
//
//	BenchmarkTable1/<ckt>   — full Table 1 rows: place + gsg/GS/gsg+GS,
//	                          with delay/area/coverage metrics reported.
//	BenchmarkExtractScaling — §3's linear-time extraction claim.
//	BenchmarkFig1Redundancy — redundancy identification during extraction.
//	BenchmarkFig2Swap       — a single non-inverting rewiring move.
//	BenchmarkFig3CrossSwap  — DeMorgan cross-supergate swap.
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/opt"
	"repro/internal/place"
	"repro/internal/region"
	"repro/internal/rewire"
	"repro/internal/sim"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/supergate"
	"repro/rapids"
)

// table1Circuits is the subset exercised per bench invocation; pass
// -bench 'BenchmarkTable1$' -benchtime 1x and use cmd/table1 for the full
// 19-row table (all circuits run there; the subset here keeps
// `go test -bench .` under a few minutes).
var table1Circuits = []string{
	"alu2", "alu4", "c432", "c499", "c1355", "c1908", "c2670",
	"c3540", "k2", "i8", "x3",
}

func BenchmarkTable1(b *testing.B) {
	for _, name := range table1Circuits {
		b.Run(name, func(b *testing.B) {
			var row harness.Row
			for i := 0; i < b.N; i++ {
				var err error
				row, err = harness.RunBenchmark(name, harness.Config{
					PlaceMoves: 30, MaxIters: 8, VerifyRounds: 8,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.GsgPct, "gsg%")
			b.ReportMetric(row.GSPct, "GS%")
			b.ReportMetric(row.GsgGSPct, "gsg+GS%")
			b.ReportMetric(row.GsgGSAreaPct, "area%")
			b.ReportMetric(row.CovPct, "cov%")
			b.ReportMetric(float64(row.L), "L")
			b.ReportMetric(float64(row.Red), "red")
		})
	}
}

// BenchmarkExtractScaling measures supergate extraction across one decade
// of circuit sizes; ns/op should grow linearly with gate count (§3's
// linear-time claim). The per-gate metric makes the comparison direct.
func BenchmarkExtractScaling(b *testing.B) {
	for _, gates := range []int{1000, 2000, 5000, 10000, 20000, 50000} {
		p := gen.Profile{
			Name: fmt.Sprintf("scale%d", gates), Seed: 42,
			NumPI: 64, TargetGates: gates,
			XorFrac: 0.1, NorFrac: 0.4, InvFrac: 0.12,
			Locality: 0.6, MaxFanin: 3,
		}
		n := gen.FromProfile(p)
		b.Run(fmt.Sprintf("gates=%d", gates), func(b *testing.B) {
			b.ReportAllocs()
			var ext *supergate.Extraction
			for i := 0; i < b.N; i++ {
				ext = supergate.Extract(n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(gates), "ns/gate")
			_ = ext
		})
	}
}

// BenchmarkFig1Redundancy measures extraction on the redundancy-rich i8
// stand-in (229 injected patterns) and reports how many it identifies.
func BenchmarkFig1Redundancy(b *testing.B) {
	n, err := gen.Generate("i8")
	if err != nil {
		b.Fatal(err)
	}
	var found int
	for i := 0; i < b.N; i++ {
		found = len(supergate.Extract(n).Redundancies)
	}
	b.ReportMetric(float64(found), "redundancies")
}

// fig2Network recreates the Fig. 2 supergate for the swap micro-bench.
func fig2Network() (*network.Network, *network.Gate) {
	n := network.New("fig2")
	h := n.AddInput("h")
	x := n.AddInput("x")
	k := n.AddInput("k")
	inner := n.AddGate("inner", logic.Nor, h, x)
	mid := n.AddGate("mid", logic.Inv, inner)
	f := n.AddGate("f", logic.Nor, mid, k)
	n.MarkOutput(f)
	return n, f
}

// BenchmarkFig2Swap measures one non-inverting swap apply+undo — the unit
// move of the rewiring optimizer.
func BenchmarkFig2Swap(b *testing.B) {
	n, f := fig2Network()
	ext := supergate.Extract(n)
	sg := ext.Of(f)
	var hi, ki int
	for i, l := range sg.Leaves {
		switch l.Driver.Name() {
		case "h":
			hi = i
		case "k":
			ki = i
		}
	}
	s := rewire.Swap{SG: sg, I: hi, J: ki}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		undo := rewire.Apply(n, s)
		undo()
	}
}

// BenchmarkFig3CrossSwap measures the Theorem 2 fanin-set exchange
// (including the dualization of both supergates).
func BenchmarkFig3CrossSwap(b *testing.B) {
	n := network.New("fig3")
	var in [6]*network.Gate
	for i, name := range []string{"a", "b", "c", "d", "e", "g"} {
		in[i] = n.AddInput(name)
	}
	s1 := n.AddGate("s1", logic.Nand, in[0], in[1], in[2])
	s2 := n.AddGate("s2", logic.Nor, in[3], in[4], in[5])
	f := n.AddGate("f", logic.Xor, s1, s2)
	n.MarkOutput(f)
	ext := supergate.Extract(n)
	sg1, sg2 := ext.Of(s1), ext.Of(s2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each CrossSwap dualizes and exchanges; two in a row restore the
		// original network, keeping the benchmark state stable.
		if err := rewire.CrossSwap(n, sg1, sg2); err != nil {
			b.Fatal(err)
		}
		if err := rewire.CrossSwap(n, sg1, sg2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeadline reproduces the §6/§7 summary numbers over a small
// circuit set and reports the three averages next to the paper's 3.1 /
// 5.4 / 9.0.
func BenchmarkHeadline(b *testing.B) {
	circuits := []string{"alu2", "c432", "c1908", "k2"}
	var avg harness.Row
	for i := 0; i < b.N; i++ {
		rows := make([]harness.Row, 0, len(circuits))
		for _, name := range circuits {
			row, err := harness.RunBenchmark(name, harness.Config{
				PlaceMoves: 20, MaxIters: 6, VerifyRounds: 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row)
		}
		avg = harness.Average(rows)
	}
	b.ReportMetric(avg.GsgPct, "gsg%")
	b.ReportMetric(avg.GSPct, "GS%")
	b.ReportMetric(avg.GsgGSPct, "gsg+GS%")
}

// --- Ablation benchmarks: design choices DESIGN.md calls out ---

// benchOptimized runs one strategy on a placed benchmark and returns the
// delay improvement percentage.
func benchOptimized(b *testing.B, name string, strat opt.Strategy, o opt.Options) float64 {
	b.Helper()
	lib := library.Default035()
	n, err := gen.Generate(name)
	if err != nil {
		b.Fatal(err)
	}
	place.Place(n, lib, place.Options{Seed: 1, MovesPerCell: 20})
	sizing.SeedForLoad(n, lib, 0)
	res := opt.Optimize(context.Background(), n, lib, strat, o)
	return res.ImprovementPct()
}

// BenchmarkAblationRelaxation isolates Coudert's sum-slack relaxation
// phase (§5): gsg+GS with and without it.
func BenchmarkAblationRelaxation(b *testing.B) {
	for _, cfg := range []struct {
		label   string
		disable bool
	}{{"with-relaxation", false}, {"min-slack-only", true}} {
		b.Run(cfg.label, func(b *testing.B) {
			var imp float64
			for i := 0; i < b.N; i++ {
				imp = benchOptimized(b, "alu2", opt.GsgGS,
					opt.Options{MaxIters: 8, DisableRelaxation: cfg.disable})
			}
			b.ReportMetric(imp, "improve%")
		})
	}
}

// BenchmarkAblationSeedSizes isolates the load-aware initial sizing that
// emulates the paper's timing-driven mapper: GS gains from a load-seeded
// baseline (refinement) versus an all-minimum baseline (rescue).
func BenchmarkAblationSeedSizes(b *testing.B) {
	lib := library.Default035()
	run := func(loadSeed bool) (initNS, improvePct float64) {
		n, err := gen.Generate("c432")
		if err != nil {
			b.Fatal(err)
		}
		place.Place(n, lib, place.Options{Seed: 1, MovesPerCell: 20})
		if loadSeed {
			sizing.SeedForLoad(n, lib, 0)
		} else {
			n.Gates(func(g *network.Gate) {
				if !g.IsInput() {
					g.SizeIdx = 0
				}
			})
		}
		res := opt.Optimize(context.Background(), n, lib, opt.GS, opt.Options{MaxIters: 8})
		return res.InitialDelay, res.ImprovementPct()
	}
	for _, cfg := range []struct {
		label    string
		loadSeed bool
	}{{"load-seeded", true}, {"all-minimum", false}} {
		b.Run(cfg.label, func(b *testing.B) {
			var init, imp float64
			for i := 0; i < b.N; i++ {
				init, imp = run(cfg.loadSeed)
			}
			b.ReportMetric(init, "init-ns")
			b.ReportMetric(imp, "GS-improve%")
		})
	}
}

// --- Incremental vs full STA: the optimizer's per-swap evaluation cost ---

// staSwapBench shares one placed, load-seeded copy of the largest
// generated Table 1 benchmark (s38417, ~10k gates); each benchmark clones
// it so toggled swaps never leak across runs.
var staSwapBench struct {
	once sync.Once
	n    *network.Network
	lib  *library.Library
}

// staSwapSetup clones the shared network and enumerates a pool of
// non-inverting swaps (self-inverse, so cycling through the pool toggles
// wires without growing the netlist).
func staSwapSetup(b *testing.B) (*network.Network, *library.Library, []rewire.Swap) {
	b.Helper()
	staSwapBench.once.Do(func() {
		staSwapBench.lib = library.Default035()
		n, err := gen.Generate("s38417")
		if err != nil {
			panic(err)
		}
		place.Place(n, staSwapBench.lib, place.Options{Seed: 1, MovesPerCell: 5})
		sizing.SeedForLoad(n, staSwapBench.lib, 0)
		staSwapBench.n = n
	})
	n, _ := staSwapBench.n.Clone()
	ext := supergate.Extract(n)
	var swaps []rewire.Swap
	for _, sg := range ext.NonTrivial() {
		for _, s := range rewire.Enumerate(sg) {
			if !s.Inverting {
				swaps = append(swaps, s)
			}
		}
		if len(swaps) >= 256 {
			break
		}
	}
	if len(swaps) == 0 {
		b.Fatal("no non-inverting swaps available")
	}
	return n, staSwapBench.lib, swaps
}

// BenchmarkFullSTA measures the seed's per-move timing cost: one rewiring
// swap followed by a from-scratch Analyze of all ~10k gates.
func BenchmarkFullSTA(b *testing.B) {
	n, lib, swaps := staSwapSetup(b)
	clock := sta.Analyze(n, lib, 0).Clock
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rewire.Apply(n, swaps[i%len(swaps)])
		sink = sta.Analyze(n, lib, clock).CriticalDelay
	}
	_ = sink
}

// BenchmarkIncrementalSTA measures the same per-move cost through the
// mutation-tracked timer: the swap dirties a handful of gates and Update
// re-propagates timing through that region only. The ratio to
// BenchmarkFullSTA is the optimizer-loop speedup the incremental engine
// buys (acceptance floor: 5x).
func BenchmarkIncrementalSTA(b *testing.B) {
	n, lib, swaps := staSwapSetup(b)
	inc := sta.NewIncremental(n, lib, 0)
	defer inc.Close()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rewire.Apply(n, swaps[i%len(swaps)])
		sink = inc.Update().CriticalDelay
	}
	b.StopTimer()
	st := inc.Stats()
	b.ReportMetric(st.AvgDirty(), "dirty/op")
	b.ReportMetric(float64(st.ArrivalRecomputes)/float64(max(1, st.IncrementalUpdates)), "arr-recomputes/op")
	_ = sink
}

// BenchmarkIncrementalWideUpdate measures one Update that re-times
// thousands of gates: the first logic gate on s38417's critical path,
// next to the primary inputs, alternates between two sizes, so every op
// re-propagates its whole fanout cone — the shape of a regioned round's
// batch rather than a single optimizer move. The level queues and the
// stamped sets are warm after the first op, so the sweep itself should
// allocate nothing.
func BenchmarkIncrementalWideUpdate(b *testing.B) {
	n, lib, _ := staSwapSetup(b)
	inc := sta.NewIncremental(n, lib, 0)
	defer inc.Close()
	var g *network.Gate
	for _, x := range inc.Timing().CriticalPath() {
		if !x.IsInput() {
			g = x
			break
		}
	}
	sizes := [2]int{g.SizeIdx, (g.SizeIdx + 1) % library.NumSizes}
	n.SetSize(g, sizes[1])
	inc.Update()
	before := inc.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.SetSize(g, sizes[i%2])
		inc.Update()
	}
	b.StopTimer()
	st := inc.Stats()
	if st.FullAnalyses != before.FullAnalyses {
		b.Fatalf("the update fell back to a full analysis")
	}
	b.ReportMetric(float64(st.ArrivalRecomputes+st.RequiredRecomputes-before.ArrivalRecomputes-before.RequiredRecomputes)/float64(b.N), "recomputes/op")
}

// BenchmarkRollback measures one rejected sum-slack batch on s38417, the
// way the optimizer undoes it: checkpoint the timer, apply every move of
// the phase's ranking, run the guard's UpdateArrivals, undo the moves in
// reverse order, and roll the timer and the extraction cache back.
// Nothing is re-timed or re-extracted after the undo, and the guard's
// backward work is discarded unrun. The unrevalidated batch dirties most
// of the network, as the optimizer's rejected sum-slack batches on
// s38417 do, so the guard falls back to passes 1-2 of a full analysis.
// The timer fell back in the warm-up op, so each Checkpoint copies the
// timing whole and the rollback copies it back.
func BenchmarkRollback(b *testing.B) {
	benchRollback(b, opt.Options{MaxSwapLeaves: 48}, 0, true)
}

// BenchmarkRollbackWindowed is BenchmarkRollback for a batch the size of
// a windowed run's (opt-regions): the first 200 moves of the sum-slack
// ranking under window 0.005. The guard stays incremental, so the
// checkpoint copies nothing and the rollback replays the undo log of
// what the guard's update overwrote.
func BenchmarkRollbackWindowed(b *testing.B) {
	benchRollback(b, opt.Options{MaxSwapLeaves: 48, Window: 0.005}, 200, false)
}

// benchRollback times one rejected batch of the first max moves (all
// when max is 0) of s38417's sum-slack ranking under o, and fails when
// the guard's update falls back to a full analysis other than as
// fallback says.
func benchRollback(b *testing.B, o opt.Options, max int, fallback bool) {
	n, lib, _ := staSwapSetup(b)
	inc := sta.NewIncremental(n, lib, 0)
	defer inc.Release()
	cache := supergate.NewCache(n)
	defer cache.Close()
	eng := opt.NewEngine(1)
	moves := eng.Moves(inc.Timing(), opt.GsgGS, sizing.SumSlack, o, cache.Extraction())
	eng.Release()
	if max > 0 && len(moves) > max {
		moves = moves[:max]
	}
	undos := make([]func(), 0, len(moves))
	reject := func() {
		inc.Checkpoint()
		n.BeginBatch()
		for _, m := range moves {
			if m.IsSwap {
				undos = append(undos, rewire.Apply(n, m.Swap))
				continue
			}
			g, old := m.Gate, m.Gate.SizeIdx
			n.SetSize(g, m.Size)
			undos = append(undos, func() { n.SetSize(g, old) })
		}
		n.EndBatch()
		inc.UpdateArrivals()
		if inc.LastUpdateFull() != fallback {
			b.Fatalf("the guard's update fell back: %v, want %v", inc.LastUpdateFull(), fallback)
		}
		n.BeginBatch()
		for i := len(undos) - 1; i >= 0; i-- {
			undos[i]()
		}
		n.EndBatch()
		undos = undos[:0]
		cache.Rollback()
		inc.Rollback()
	}
	reject() // warm the checkpoint and the propagation scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reject()
	}
	b.ReportMetric(float64(len(moves)), "moves")
}

// --- PR 2: the move-evaluation engine ---

// BenchmarkMoveGen measures one phase of candidate generation + scoring
// on s38417 (~10k gates) — the optimizer's inner loop once timing is
// incremental — sequential versus parallel. The engine scores every
// critical supergate's best swap and every sizable gate's best resize
// against the frozen timing view; allocations are reported because the
// scoring path is designed to be allocation-free (per-worker arenas).
// Both arms produce bit-identical move lists.
func BenchmarkMoveGen(b *testing.B) {
	n, l, _ := staSwapSetup(b)
	tm := sta.Analyze(n, l, 0)
	ext := supergate.Extract(n)
	o := opt.Options{MaxIters: 1, MaxSwapLeaves: 48}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := opt.NewEngine(workers)
			b.ReportAllocs()
			var moves int
			for i := 0; i < b.N; i++ {
				moves = len(eng.Moves(tm, opt.GsgGS, sizing.MinSlack, o, ext))
			}
			b.ReportMetric(float64(moves), "moves")
		})
	}
}

// BenchmarkMoveGenSumSlack is BenchmarkMoveGen's sequential arm in the
// sum-slack phase: the same s38417 view and engine, scoring the wider
// 10% band that relaxation works. It is 3 of an s38417 Optimize's 6
// phases and most of its scoring, so it is the perf gate's scoring
// benchmark next to the min-slack one.
func BenchmarkMoveGenSumSlack(b *testing.B) {
	n, l, _ := staSwapSetup(b)
	tm := sta.Analyze(n, l, 0)
	ext := supergate.Extract(n)
	o := opt.Options{MaxIters: 1, MaxSwapLeaves: 48}
	eng := opt.NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	var moves int
	for i := 0; i < b.N; i++ {
		moves = len(eng.Moves(tm, opt.GsgGS, sizing.SumSlack, o, ext))
	}
	b.ReportMetric(float64(moves), "moves")
}

// BenchmarkExtractIncremental measures re-extraction after a small
// committed batch (the optimizer's steady state): a k-gate toggle batch
// followed by either a cached flush (invalidate + re-extract the touched
// supergates only) or a from-scratch Extract of all ~10k gates. The
// ratio is the candidate-generation speedup the cache buys per phase.
func BenchmarkExtractIncremental(b *testing.B) {
	const gates = 10000
	build := func() *network.Network {
		return gen.FromProfile(gen.Profile{
			Name: "extract10k", Seed: 42,
			NumPI: 64, TargetGates: gates,
			XorFrac: 0.1, NorFrac: 0.4, InvFrac: 0.12,
			Locality: 0.6, MaxFanin: 3,
		})
	}
	// A pool of non-inverting swaps: self-inverse, so cycling through
	// them toggles wires without growing the netlist.
	swapPool := func(n *network.Network) []rewire.Swap {
		var swaps []rewire.Swap
		for _, sg := range supergate.Extract(n).NonTrivial() {
			for _, s := range rewire.Enumerate(sg) {
				if !s.Inverting {
					swaps = append(swaps, s)
				}
			}
			if len(swaps) >= 256 {
				break
			}
		}
		return swaps
	}
	const batch = 8 // gates touched per committed batch ≈ 4 per swap
	b.Run("cached", func(b *testing.B) {
		n := build()
		swaps := swapPool(n)
		cache := supergate.NewCache(n)
		defer cache.Close()
		cache.Extraction()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < batch/4; k++ {
				rewire.Apply(n, swaps[(i*2+k)%len(swaps)])
			}
			cache.Extraction()
		}
		b.StopTimer()
		st := cache.Stats()
		b.ReportMetric(float64(st.Reextracted)/float64(max(1, st.IncrementalFlushes)), "resg/op")
		if st.FullExtractions > 1 {
			b.Fatalf("cache fell back to full extraction %d times", st.FullExtractions-1)
		}
	})
	b.Run("full", func(b *testing.B) {
		n := build()
		swaps := swapPool(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < batch/4; k++ {
				rewire.Apply(n, swaps[(i*2+k)%len(swaps)])
			}
			supergate.Extract(n)
		}
	})
}

// BenchmarkRedundancyRemoval measures the extension built on Fig. 1:
// removing every detected case-2 redundancy from the i8 stand-in.
func BenchmarkRedundancyRemoval(b *testing.B) {
	var removed int
	for i := 0; i < b.N; i++ {
		n, err := gen.Generate("i8")
		if err != nil {
			b.Fatal(err)
		}
		removed = rewire.RemoveAllRedundancies(n)
	}
	b.ReportMetric(float64(removed), "removed")
}

// --- PR 3: criticality windowing and region partitioning ---

// BenchmarkWindowedMoveGen measures one phase of candidate generation on
// s38417 at several criticality windows (window=0 is the default 2%/10%
// margins). "evals" is the number of individual candidates scored — the
// unit of work the window cuts; BENCH_PR3.json records the >=3x
// reduction acceptance.
func BenchmarkWindowedMoveGen(b *testing.B) {
	n, l, _ := staSwapSetup(b)
	tm := sta.Analyze(n, l, 0)
	ext := supergate.Extract(n)
	phases := []struct {
		name string
		obj  sizing.Objective
	}{{"minslack", sizing.MinSlack}, {"relax", sizing.SumSlack}}
	for _, w := range []float64{0, 0.01, 0.005} {
		for _, ph := range phases {
			b.Run(fmt.Sprintf("window=%g/%s", w, ph.name), func(b *testing.B) {
				o := opt.Options{MaxIters: 1, MaxSwapLeaves: 48, Window: w}
				var st opt.EvalStats
				for i := 0; i < b.N; i++ {
					eng := opt.NewEngine(1)
					eng.Moves(tm, opt.GsgGS, ph.obj, o, ext)
					st = eng.Stats()
				}
				b.ReportMetric(float64(st.Candidates()), "evals")
				b.ReportMetric(float64(st.Moves), "moves")
			})
		}
	}
}

// BenchmarkOptimizeWindowed runs the full gsg+GS optimizer on s38417 with
// and without the criticality window: wall clock, total candidate
// evaluations, and the final delay document the work/quality trade.
func BenchmarkOptimizeWindowed(b *testing.B) {
	for _, w := range []float64{0, 0.005} {
		b.Run(fmt.Sprintf("window=%g", w), func(b *testing.B) {
			var res opt.Result
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n, l, _ := staSwapSetup(b)
				b.StartTimer()
				res = opt.Optimize(context.Background(), n, l, opt.GsgGS, opt.Options{MaxIters: 4, Workers: 1, Window: w})
			}
			b.ReportMetric(res.Evals.PerPhase(), "evals/phase")
			b.ReportMetric(float64(res.Evals.Phases), "phases")
			b.ReportMetric(res.FinalDelay, "final-ns")
			b.ReportMetric(res.ImprovementPct(), "improve%")
		})
	}
}

// BenchmarkOptimizeRegioned runs gsg+GS on s38417 as one Optimize call
// versus the rounds loop behind WithRegions (up to 3 whole-network
// rounds sharing one timer and one supergate cache), unwindowed and with
// a 0.005 criticality window. The windowed rounds arm is in make
// perf-gate.
func BenchmarkOptimizeRegioned(b *testing.B) {
	for _, arm := range []struct {
		name   string
		rounds bool
		window float64
	}{
		{"optimize", false, 0},
		{"rounds", true, 0},
		{"rounds,window=0.005", true, 0.005},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var res opt.Result
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n, l, _ := staSwapSetup(b)
				b.StartTimer()
				o := opt.Options{MaxIters: 4, Workers: 1, Window: arm.window}
				if arm.rounds {
					res = opt.OptimizeRounds(context.Background(), n, l, opt.GsgGS, o)
				} else {
					res = opt.Optimize(context.Background(), n, l, opt.GsgGS, o)
				}
			}
			b.ReportMetric(res.Evals.PerPhase(), "evals/phase")
			b.ReportMetric(res.FinalDelay, "final-ns")
			b.ReportMetric(res.ImprovementPct(), "improve%")
		})
	}
}

// BenchmarkRegionRoundTrip times internal/region's partition → extract →
// stitch round trip on s38417 with the optimizer taken out: partition
// the network, extract every region under pinned bounds, stitch the
// (unmodified) subnetwork back, check acyclicity and re-analyze. No
// optimizer path uses it; it is the micro-benchmark twin of cmd/bench's
// region.roundtrip_ms probe, and the allocs/op band in
// PERF_BASELINE.json keeps that probe's code from regressing silently.
func BenchmarkRegionRoundTrip(b *testing.B) {
	n, l, _ := staSwapSetup(b)
	tm := sta.AnalyzeReleased(n, l, 0, nil)
	b.ReportAllocs()
	b.ResetTimer()
	regionsSeen := 0
	for i := 0; i < b.N; i++ {
		part := region.Build(n, tm, region.Options{Window: region.DefaultWindow, MaxRegions: 8})
		regionsSeen = len(part.Regions)
		for _, r := range part.Regions {
			ext := region.Extract(n, tm, r)
			region.Stitch(n, ext.Net, r.Interior)
		}
		if err := n.CheckAcyclic(); err != nil {
			b.Fatal(err)
		}
		// Stitching replaced every gate object, so the next partition
		// needs a fresh analysis.
		clock := tm.Clock
		sta.ReleaseTiming(tm)
		tm = sta.AnalyzeReleased(n, l, clock, nil)
	}
	b.StopTimer()
	sta.ReleaseTiming(tm)
	b.ReportMetric(float64(regionsSeen), "regions")
}

// --- ECO session edit path ---

// sessionBench shares one placed s38417 circuit; each benchmark clones it.
var sessionBench struct {
	once sync.Once
	c    *rapids.Circuit
}

// BenchmarkSessionApply measures one resize Apply in an ECO session on
// placed s38417: validation, the mutation, incremental re-timing, the
// Delta, and publishing the new view. The edited gate sits mid-way along
// the critical path and alternates between two sizes, so every op is a
// real edit.
func BenchmarkSessionApply(b *testing.B) {
	sessionBench.once.Do(func() {
		c, err := rapids.Generate("s38417")
		if err != nil {
			panic(err)
		}
		c.Place(rapids.PlaceMoves(5))
		sessionBench.c = c
	})
	s, err := sessionBench.c.Clone().BeginSession(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	path := s.View().CriticalPath
	edits := [2]rapids.Edit{
		{Kind: rapids.EditResize, Gate: path[len(path)/2].Gate, Size: 1},
		{Kind: rapids.EditResize, Gate: path[len(path)/2].Gate, Size: 2},
	}
	if _, err := s.Apply(edits[1]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Apply(edits[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Post-optimization verification ---

// verifyBench holds placed s38417 before and after a gsg+GS run.
var verifyBench struct {
	once      sync.Once
	orig, opt *network.Network
}

// BenchmarkVerify measures the facade's verification of one Optimize:
// capturing the input's responses to 16 rounds of 64 random patterns,
// then checking the optimized network against them.
func BenchmarkVerify(b *testing.B) {
	verifyBench.once.Do(func() {
		c, err := rapids.Generate("s38417")
		if err != nil {
			panic(err)
		}
		c.Place(rapids.PlaceMoves(5))
		o := c.Clone()
		if _, err := o.Optimize(context.Background(), rapids.WithVerification(0)); err != nil {
			panic(err)
		}
		verifyBench.orig, verifyBench.opt = c.Network(), o.Network()
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 12345 is the seed Optimize verifies with.
		ce, err := sim.Capture(verifyBench.orig, rapids.DefaultVerifyRounds, 12345).Check(verifyBench.opt)
		if err != nil || ce != nil {
			b.Fatalf("optimized s38417 failed verification: ce=%v err=%v", ce, err)
		}
	}
}

// BenchmarkSnapshotAfterResize measures the snapshot a session publishes
// after a one-gate resize on s38417: a value-only epoch, so the capture
// patches a copy of the previous one instead of re-walking the network.
func BenchmarkSnapshotAfterResize(b *testing.B) {
	n, _, _ := staSwapSetup(b)
	var g *network.Gate
	n.Gates(func(x *network.Gate) {
		if g == nil && !x.IsInput() {
			g = x
		}
	})
	n.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.SetSize(g, g.SizeIdx^1)
		n.Snapshot()
	}
}

// BenchmarkPlace measures the annealing placer on s38417 at the facade's
// 30 moves per cell, seed 1. Each op re-places the same network from
// scratch, so every op takes the same trajectory.
func BenchmarkPlace(b *testing.B) {
	n, err := gen.Generate("s38417")
	if err != nil {
		b.Fatal(err)
	}
	lib := library.Default035()
	var res place.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = place.Place(n, lib, place.Options{Seed: 1, MovesPerCell: 30})
	}
	b.ReportMetric(float64(res.MovesTaken), "taken")
}
