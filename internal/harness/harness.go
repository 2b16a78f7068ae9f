// Package harness drives the paper's experimental flow end to end and
// regenerates Table 1: for each benchmark it builds the mapped netlist
// through the public rapids facade, places it, runs the three optimizers
// (gsg, GS, gsg+GS) on independent clones of the same placement, and
// reports the paper's columns — initial critical-path delay,
// per-optimizer delay improvement and CPU time, area deltas, non-trivial
// supergate coverage, the largest supergate's input count L, and the
// number of redundancies found during extraction.
//
// Every optimized network is verified by random simulation against the
// responses captured from its input (the facade's WithVerification
// contract); a verification failure fails the run loudly rather than
// producing a bogus row.
package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/rapids"
)

// Config controls a harness run.
type Config struct {
	// Benchmarks lists the circuits; nil means all of Table 1.
	Benchmarks []string
	// PlaceSeed seeds the placer (default 1).
	PlaceSeed int64
	// PlaceMoves is the annealer effort per cell (default 30).
	PlaceMoves int
	// MaxIters bounds optimizer iterations (default 6).
	MaxIters int
	// VerifyRounds is the facade's rapids.WithVerification knob: the
	// number of 64-pattern random equivalence rounds per optimizer.
	// Zero selects the facade default (rapids.DefaultVerifyRounds); any
	// negative value disables verification, exactly as
	// WithVerification(rounds <= 0) does.
	VerifyRounds int
	// Workers is the move-scoring parallelism passed to every optimizer
	// run: 0 uses GOMAXPROCS, 1 forces sequential scoring. Results are
	// bit-identical at every setting; only CPU time changes.
	Workers int
	// Window, when > 0, narrows candidate generation to sites within
	// Window×Clock of the worst slack (see rapids.WithWindow).
	Window float64
	// Regions, when > 1, runs every optimizer in up to 3 whole-network
	// rounds with a full re-analysis between them (see
	// rapids.WithRegions); the value beyond 1 is not used.
	Regions int
	// Progress, when non-nil, receives the typed rapids.Event stream of
	// every optimizer run.
	Progress func(rapids.Event)
}

func (c *Config) fill() {
	if c.Benchmarks == nil {
		c.Benchmarks = rapids.Benchmarks()
	}
	if c.PlaceSeed == 0 {
		c.PlaceSeed = 1
	}
	if c.PlaceMoves == 0 {
		c.PlaceMoves = 30
	}
	if c.MaxIters == 0 {
		c.MaxIters = 6
	}
	if c.VerifyRounds == 0 {
		c.VerifyRounds = rapids.DefaultVerifyRounds
	}
	// VerifyRounds < 0 passes through: the facade disables verification
	// for any non-positive round count.
}

// Row is one line of Table 1.
type Row struct {
	Name  string
	Gates int
	// InitNS is the critical path delay after placement, ns (column 3).
	InitNS float64
	// Delay improvements in percent (columns 4-6).
	GsgPct, GSPct, GsgGSPct float64
	// CPU seconds (columns 7-9).
	GsgCPU, GSCPU, GsgGSCPU float64
	// Area deltas in percent (columns 10-11).
	GSAreaPct, GsgGSAreaPct float64
	// CovPct is the percentage of gates covered by non-trivial
	// supergates (column 12).
	CovPct float64
	// L is the input count of the largest supergate (column 13).
	L int
	// Red is the number of redundancies found (column 14).
	Red int
	// Verified reports that all three optimized networks are
	// simulation-equivalent to the placed original.
	Verified bool
	// Err carries the failure of this benchmark's run, if any. RunAll
	// records it here and keeps going instead of abandoning the table.
	Err string
}

// RunBenchmark produces one Table 1 row.
func RunBenchmark(name string, cfg Config) (Row, error) {
	cfg.fill()
	base, err := rapids.Generate(name)
	if err != nil {
		return Row{}, err
	}
	base.Place(rapids.PlaceSeed(cfg.PlaceSeed), rapids.PlaceMoves(cfg.PlaceMoves))
	row := Row{Name: name, Gates: base.Gates(), Verified: true}

	run := func(strat rapids.Strategy) (*rapids.Result, error) {
		c := base.Clone()
		res, err := c.Optimize(context.Background(),
			rapids.WithStrategy(strat),
			rapids.WithIters(cfg.MaxIters),
			rapids.WithWorkers(cfg.Workers),
			rapids.WithWindow(cfg.Window),
			rapids.WithRegions(cfg.Regions),
			rapids.WithVerification(cfg.VerifyRounds),
			rapids.WithProgress(cfg.Progress),
		)
		if err != nil {
			row.Verified = false
			return res, err
		}
		return res, nil
	}

	gsg, err := run(rapids.Gsg)
	if err != nil {
		return row, err
	}
	gs, err := run(rapids.GS)
	if err != nil {
		return row, err
	}
	both, err := run(rapids.GsgGS)
	if err != nil {
		return row, err
	}

	row.InitNS = gsg.InitialDelayNS
	row.GsgPct = gsg.ImprovementPct()
	row.GSPct = gs.ImprovementPct()
	row.GsgGSPct = both.ImprovementPct()
	row.GsgCPU = gsg.Elapsed.Seconds()
	row.GSCPU = gs.Elapsed.Seconds()
	row.GsgGSCPU = both.Elapsed.Seconds()
	row.GSAreaPct = gs.AreaDeltaPct()
	row.GsgGSAreaPct = both.AreaDeltaPct()
	row.CovPct = gsg.CoveragePct
	row.L = gsg.MaxSupergateInputs
	row.Red = gsg.Redundancies
	return row, nil
}

// RunAll produces all rows of the configured benchmark set. A failing
// benchmark (verification mismatch, unknown circuit) no longer aborts the
// table: its error is recorded in Row.Err (with Verified false) and the
// remaining benchmarks still run. The returned error is non-nil only when
// *every* benchmark failed.
func RunAll(cfg Config) ([]Row, error) {
	cfg.fill()
	rows := make([]Row, 0, len(cfg.Benchmarks))
	failures := 0
	var firstErr error
	for _, name := range cfg.Benchmarks {
		row, err := RunBenchmark(name, cfg)
		if err != nil {
			if row.Name == "" {
				row.Name = name
			}
			row.Verified = false
			row.Err = err.Error()
			failures++
			if firstErr == nil {
				firstErr = err
			}
		}
		rows = append(rows, row)
	}
	if failures == len(cfg.Benchmarks) && failures > 0 {
		return rows, firstErr
	}
	return rows, nil
}

// Average returns the column averages (the paper's "ave." line covers the
// percentage columns). Failed rows (Err set) poison only the Verified
// flag, not the numeric averages — their zero percentage columns would
// otherwise silently dilute the headline numbers.
func Average(rows []Row) Row {
	avg := Row{Name: "ave.", Verified: true}
	clean := 0
	for _, r := range rows {
		avg.Verified = avg.Verified && r.Verified && r.Err == ""
		if r.Err != "" {
			continue
		}
		clean++
		avg.GsgPct += r.GsgPct
		avg.GSPct += r.GSPct
		avg.GsgGSPct += r.GsgGSPct
		avg.GSAreaPct += r.GSAreaPct
		avg.GsgGSAreaPct += r.GsgGSAreaPct
		avg.CovPct += r.CovPct
	}
	if clean == 0 {
		return avg
	}
	k := float64(clean)
	avg.GsgPct /= k
	avg.GSPct /= k
	avg.GsgGSPct /= k
	avg.GSAreaPct /= k
	avg.GsgGSAreaPct /= k
	avg.CovPct /= k
	return avg
}

// FormatTable renders rows in the layout of Table 1 — plus a verification
// column the paper takes for granted — appending the average line and one
// trailing comment line per failed benchmark.
func FormatTable(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %6s %7s %6s %6s %7s %8s %8s %8s %7s %8s %7s %4s %6s %4s\n",
		"ckt", "gates", "init", "gsg", "GS", "gsg+GS",
		"gsg cpu", "GS cpu", "g+G cpu", "GS ar%", "g+G ar%", "cov%", "L", "#red", "ver")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %6d %7.2f %5.1f%% %5.1f%% %6.1f%% %7.2fs %7.2fs %7.2fs %+6.1f%% %+7.1f%% %6.1f%% %4d %6d %4s\n",
			r.Name, r.Gates, r.InitNS, r.GsgPct, r.GSPct, r.GsgGSPct,
			r.GsgCPU, r.GSCPU, r.GsgGSCPU, r.GSAreaPct, r.GsgGSAreaPct,
			r.CovPct, r.L, r.Red, verMark(r))
	}
	avg := Average(rows)
	fmt.Fprintf(&b, "%-8s %6s %7s %5.1f%% %5.1f%% %6.1f%% %8s %8s %8s %+6.1f%% %+7.1f%% %6.1f%% %4s %6s %4s\n",
		"ave.", "", "", avg.GsgPct, avg.GSPct, avg.GsgGSPct, "", "", "",
		avg.GSAreaPct, avg.GsgGSAreaPct, avg.CovPct, "", "", verMark(avg))
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "# %s: %s\n", r.Name, r.Err)
		}
	}
	return b.String()
}

// verMark renders the verification column.
func verMark(r Row) string {
	if r.Err != "" || !r.Verified {
		return "FAIL"
	}
	return "ok"
}

// PaperAverages returns the headline numbers of the paper's "ave." row for
// comparison in EXPERIMENTS.md: gsg 3.1%, GS 5.4%, gsg+GS 9.0%, GS area
// -2.2%, gsg+GS area -2.3%, coverage 27.6%.
func PaperAverages() Row {
	return Row{
		Name: "paper ave.", GsgPct: 3.1, GSPct: 5.4, GsgGSPct: 9.0,
		GSAreaPct: -2.2, GsgGSAreaPct: -2.3, CovPct: 27.6,
	}
}
