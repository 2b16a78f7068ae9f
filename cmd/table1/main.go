// Command table1 regenerates Table 1 of the paper: the three optimizers
// (gsg, GS, gsg+GS) over the 19 MCNC-91/ISCAS-89 benchmark stand-ins, with
// delay improvements, CPU times, area deltas, supergate coverage, largest
// supergate size L, and redundancy counts.
//
// Usage:
//
//	table1 [-benchmarks alu2,c432,...] [-iters N] [-moves N] [-seed N]
//	       [-quick] [-summary] [-v]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/harness"
	"repro/internal/perf"
	"repro/rapids"
)

func main() {
	var (
		benchmarks = flag.String("benchmarks", "", "comma-separated circuit names (default: all 19)")
		iters      = flag.Int("iters", 8, "optimizer iterations")
		moves      = flag.Int("moves", 30, "placement annealing moves per cell")
		seed       = flag.Int64("seed", 1, "placement seed")
		workers    = flag.Int("workers", 0, "move-scoring workers (0 = GOMAXPROCS, 1 = sequential; results identical)")
		window     = flag.Float64("window", 0, "criticality window as a fraction of the clock (0 = default margins)")
		regions    = flag.Int("regions", 0, "> 1 runs up to 3 whole-network optimizer rounds with a full re-analysis between them (<=1 = one run)")
		verify     = flag.Int("verify", 0, "random equivalence rounds per optimizer (0 = default, negative = off; see rapids.WithVerification)")
		quick      = flag.Bool("quick", false, "small/fast subset with reduced effort")
		summary    = flag.Bool("summary", false, "print only the averages against the paper's")
		verbose    = flag.Bool("v", false, "stream typed progress events to stderr")
		cpuprof    = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole table run to this file")
		memprof    = flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this file on exit")
		traceOut   = flag.String("trace", "", "write a runtime execution trace to this file (go tool trace)")
	)
	flag.Parse()

	stopProfiles, err := perf.StartProfiles(*cpuprof, *memprof, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(1)
	}
	flushProfiles := func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "table1:", err)
		}
	}
	defer flushProfiles()

	cfg := harness.Config{
		PlaceSeed:    *seed,
		PlaceMoves:   *moves,
		MaxIters:     *iters,
		Workers:      *workers,
		Window:       *window,
		Regions:      *regions,
		VerifyRounds: *verify,
	}
	if *benchmarks != "" {
		cfg.Benchmarks = strings.Split(*benchmarks, ",")
	}
	if *quick {
		cfg.Benchmarks = []string{"alu2", "c432", "c499", "c1908", "k2"}
		cfg.PlaceMoves = 10
		cfg.MaxIters = 4
	}
	if *verbose {
		// One summary line per finished optimizer run, as the table is
		// long; cmd/rapids -v streams the full per-phase event feed.
		cfg.Progress = func(ev rapids.Event) {
			if ev.Kind == rapids.EventDone {
				fmt.Fprintln(os.Stderr, "  "+ev.String())
			}
		}
	}
	if cfg.Benchmarks == nil {
		cfg.Benchmarks = rapids.Benchmarks()
	}

	rows, err := harness.RunAll(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		flushProfiles()
		os.Exit(1)
	}
	if !*summary {
		fmt.Print(harness.FormatTable(rows))
		fmt.Println()
	}
	avg := harness.Average(rows)
	paper := harness.PaperAverages()
	fmt.Printf("averages            %8s %8s %8s %9s %9s %7s\n",
		"gsg", "GS", "gsg+GS", "GS area", "g+G area", "cov")
	fmt.Printf("  this reproduction %7.1f%% %7.1f%% %7.1f%% %+8.1f%% %+8.1f%% %6.1f%%\n",
		avg.GsgPct, avg.GSPct, avg.GsgGSPct, avg.GSAreaPct, avg.GsgGSAreaPct, avg.CovPct)
	fmt.Printf("  paper (Table 1)   %7.1f%% %7.1f%% %7.1f%% %+8.1f%% %+8.1f%% %6.1f%%\n",
		paper.GsgPct, paper.GSPct, paper.GsgGSPct, paper.GSAreaPct, paper.GsgGSAreaPct, paper.CovPct)
	if !avg.Verified {
		fmt.Fprintln(os.Stderr, "table1: WARNING: some optimized circuits failed verification")
		flushProfiles()
		os.Exit(1)
	}
}
