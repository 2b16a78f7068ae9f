// Command rapids is the reproduction of the paper's prototype tool
// (Rewiring After Placement usIng easily Detectable Symmetries): it takes
// a mapped circuit — a generated Table 1 benchmark or a BLIF/.bench
// netlist — runs the full post-placement flow through the public rapids
// facade (load, place, optimize with the chosen strategy), verifies
// functional equivalence, and reports timing, area, and rewiring
// statistics.
//
// Usage:
//
//	rapids -bench alu2 [-strategy gsg|GS|gsg+GS] [-iters N] [-clock ns]
//	rapids -netlist circuit.blif [-strategy ...]
//	cat circuit.blif | rapids -netlist -
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/perf"
	"repro/rapids"
)

func main() {
	var (
		benchName = flag.String("bench", "", "generated benchmark name (see -list)")
		netlist   = flag.String("netlist", "", "netlist to optimize (.blif or ISCAS .bench, by extension; '-' reads BLIF from stdin)")
		strategy  = flag.String("strategy", "gsg+GS", "optimizer: gsg, GS, or gsg+GS")
		iters     = flag.Int("iters", 8, "optimizer iterations")
		clock     = flag.Float64("clock", 0, "required time at outputs in ns (0 = critical delay)")
		workers   = flag.Int("workers", 0, "move-scoring workers (0 = GOMAXPROCS, 1 = sequential; results identical)")
		window    = flag.Float64("window", 0, "criticality window as a fraction of the clock (0 = default margins)")
		regions   = flag.Int("regions", 0, "> 1 runs up to 3 whole-network optimizer rounds with a full re-analysis between them (<=1 = one run)")
		moves     = flag.Int("moves", 30, "placement annealing moves per cell")
		seed      = flag.Int64("seed", 1, "placement seed")
		verify    = flag.Int("verify", rapids.DefaultVerifyRounds, "random equivalence rounds (0 disables; see rapids.WithVerification)")
		list      = flag.Bool("list", false, "list generated benchmark names and exit")
		removeRed = flag.Bool("remove-redundancies", false, "remove detected case-2 redundancies before optimizing")
		buffer    = flag.Bool("buffer", false, "run fanout buffering after the optimizer (paper §7 future work)")
		showPath  = flag.Bool("path", false, "print the post-optimization critical path")
		verbose   = flag.Bool("v", false, "stream typed progress events to stderr")
		cpuprof   = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memprof   = flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this file on exit")
		traceOut  = flag.String("trace", "", "write a runtime execution trace to this file (go tool trace)")
	)
	flag.Parse()

	stopProfiles, err := perf.StartProfiles(*cpuprof, *memprof, *traceOut)
	if err != nil {
		fail("%v", err)
	}
	// fail exits via os.Exit, which skips deferred calls, so the error
	// path flushes the profiles through onExit.
	onExit = func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "rapids: %v\n", err)
		}
	}
	defer onExit()

	if *list {
		for _, name := range rapids.Benchmarks() {
			fmt.Println(name)
		}
		return
	}

	strat, err := rapids.ParseStrategy(*strategy)
	if err != nil {
		fail("%v", err)
	}

	c, err := load(*benchName, *netlist)
	if err != nil {
		fail("%v", err)
	}

	fmt.Printf("circuit %s: %d gates, %d PIs, %d POs, depth %d\n",
		c.Name(), c.Gates(), c.Inputs(), c.Outputs(), c.Depth())

	pl := c.Place(rapids.PlaceSeed(*seed), rapids.PlaceMoves(*moves))
	fmt.Printf("placement: %d rows, die %.0f x %.0f um, HPWL %.0f -> %.0f um\n",
		pl.Rows, pl.DieWidthUM, pl.DieHeightUM, pl.InitialHPWLUM, pl.FinalHPWLUM)

	// The facade verifies the optimizer step; redundancy removal and
	// buffering are covered by one more whole-flow check at the end.
	var orig *rapids.Circuit
	if *verify > 0 && (*removeRed || *buffer) {
		orig = c.Clone()
	}

	if *removeRed {
		removed := c.RemoveRedundancies()
		fmt.Printf("redundancy removal: %d untestable branches deleted\n", removed)
	}

	fmt.Printf("initial: critical delay %.3f ns, area %.0f um^2\n", c.DelayNS(), c.AreaUM2())

	opts := []rapids.Option{
		rapids.WithStrategy(strat),
		rapids.WithClock(*clock),
		rapids.WithIters(*iters),
		rapids.WithWorkers(*workers),
		rapids.WithWindow(*window),
		rapids.WithRegions(*regions),
		rapids.WithVerification(*verify),
	}
	if *verbose {
		opts = append(opts, rapids.WithProgress(func(ev rapids.Event) {
			fmt.Fprintln(os.Stderr, ev)
		}))
	}
	res, err := c.Optimize(context.Background(), opts...)
	if err != nil {
		fail("%v", err)
	}

	fmt.Printf("%s: delay %.3f -> %.3f ns (%.1f%% better), area %+.1f%%\n",
		res.Strategy, res.InitialDelayNS, res.FinalDelayNS,
		res.ImprovementPct(), res.AreaDeltaPct())
	fmt.Printf("  %d swaps, %d resizes, %d iterations\n", res.Swaps, res.Resizes, res.Iterations)
	fmt.Printf("  timing: %d full analyses, %d incremental updates (dirty avg %.1f, max %d; %d arrival + %d required recomputes)\n",
		res.Timer.FullAnalyses, res.Timer.IncrementalUpdates,
		res.Timer.AvgDirty, res.Timer.MaxDirty,
		res.Timer.ArrivalRecomputes, res.Timer.RequiredRecomputes)
	fmt.Printf("  supergates: %.1f%% coverage, largest has %d inputs, %d redundancies found\n",
		res.CoveragePct, res.MaxSupergateInputs, res.Redundancies)
	fmt.Printf("  scoring: %d candidates over %d phases (%d swap + %d resize sites)\n",
		res.Evals.Candidates(), res.Evals.Phases,
		res.Evals.SwapSites, res.Evals.ResizeSites)
	fmt.Printf("  extraction: %d full, %d incremental flushes (%d supergates re-extracted)\n",
		res.Extractor.FullExtractions, res.Extractor.IncrementalFlushes, res.Extractor.Reextracted)

	if *buffer {
		bst := c.BufferFanout(*clock)
		fmt.Printf("fanout buffering: %d buffers, delay %.3f -> %.3f ns\n",
			bst.BuffersAdded, bst.InitialDelayNS, bst.FinalDelayNS)
	}

	if *showPath {
		printCriticalPath(c, *clock)
	}

	if orig != nil {
		if err := c.EquivalentTo(orig, *verify, 2024); err != nil {
			fail("VERIFICATION FAILED (whole flow): %v", err)
		}
	}
	switch res.Verification {
	case rapids.VerifyPassed:
		fmt.Println("verification: optimized circuit is simulation-equivalent to the original")
	case rapids.VerifyDisabled:
		fmt.Println("verification: disabled (-verify 0)")
	default:
		// VerifyFailed returns through the Optimize error above.
		fmt.Printf("verification: %s\n", res.Verification)
	}
}

// printCriticalPath reports the worst path stage by stage: per-gate cell
// delay and the interconnect delay into each pin.
func printCriticalPath(c *rapids.Circuit, clock float64) {
	path := c.CriticalPath(clock)
	last := 0.0
	if n := len(path); n > 0 {
		last = path[n-1].ArrivalNS
	}
	fmt.Printf("critical path (%d stages, %.3f ns):\n", len(path), last)
	for _, st := range path {
		fmt.Printf("  %-24s %-5s size %d  arr %8.3f ns  (+%6.3f, wire %6.3f)  load %.3f pF\n",
			st.Gate, st.Cell, st.Size, st.ArrivalNS, st.GateDelayNS, st.WireDelayNS, st.LoadPF)
	}
}

func load(benchName, netlist string) (*rapids.Circuit, error) {
	switch {
	case benchName != "" && netlist != "":
		return nil, fmt.Errorf("use -bench or -netlist, not both")
	case benchName != "":
		return rapids.Generate(benchName)
	case netlist != "":
		return rapids.LoadFile(netlist)
	}
	return nil, fmt.Errorf("need -bench <name> or -netlist <file|->; try -list")
}

// onExit, when set, runs before the process exits through fail (deferred
// calls don't survive os.Exit); main uses it to flush profile files.
var onExit func()

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "rapids: "+format+"\n", args...)
	if onExit != nil {
		onExit()
	}
	os.Exit(1)
}
