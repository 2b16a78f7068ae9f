package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/rapids"
)

// optPlaceSeed fixes the opt workloads' placement. On s38417 the
// optimizer's iteration count, and with it Optimize's time (0.6-1.7 s)
// and delay gain (0.1-6.2%), swing with the placement seed; a seeded
// placement would bury any code change under input variance, so the
// opt workloads' input does not depend on -seed.
const optPlaceSeed = 1

// runOpt is opt-s38417 (regions false) and opt-regions (true): one
// sequential in-process caller, each op a Clone plus an Optimize of the
// same placed circuit with the default options (regions adds
// WithRegions(8) and WithWindow(0.005)).
func runOpt(e *env, regions bool) error {
	ckt, ops := "s38417", e.opCount(1.0, 3)
	if e.quick {
		ckt = "c432"
	}
	var opts []rapids.Option
	if regions {
		ops = e.opCount(0.5, 3)
		opts = []rapids.Option{rapids.WithRegions(8), rapids.WithWindow(0.005)}
	}
	ctx := context.Background()

	var base *rapids.Circuit
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		c, err := e.placed(ckt, optPlaceSeed)
		if err != nil {
			return err
		}
		if _, err := c.Clone().Optimize(ctx, opts...); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		base = c
	}
	baseLoc := base.Locations()

	var (
		lat, tracedLat, untracedLat []float64
		split                       eventSplit
		busy                        time.Duration
		first                       *rapids.Result
	)
	cpu0, w0 := selfCPU(), time.Now()
	for i := 0; i < ops; i++ {
		traced := e.tracedOp(i)
		var evs []rapids.Event
		o := opts
		if traced {
			o = append(opts[:len(opts):len(opts)], rapids.WithProgress(func(ev rapids.Event) { evs = append(evs, ev) }))
		}
		t0 := time.Now()
		c := base.Clone()
		t1 := time.Now()
		res, err := c.Optimize(ctx, o...)
		t2 := time.Now()
		busy += t2.Sub(t0)
		lat = append(lat, ms(t2.Sub(t0)))

		var ck checks
		ck.expect(err == nil, "op %d: %v", i, err)
		if res == nil {
			e.rep.record(ck)
			continue
		}
		if first == nil {
			first = res
		}
		ck.expect(res.Verification == rapids.VerifyPassed, "op %d: verification %v", i, res.Verification)
		delay := c.DelayNS()
		ck.expect(math.Abs(delay-res.FinalDelayNS) <= 1e-9, "op %d: re-analysis delay %.12g != result %.12g", i, delay, res.FinalDelayNS)
		ck.expect(res.FinalDelayNS == first.FinalDelayNS, "op %d: final delay %.12g differs from the first op's %.12g", i, res.FinalDelayNS, first.FinalDelayNS)
		loc := c.Locations()
		for name, xy := range baseLoc {
			if loc[name] != xy {
				ck.expect(false, "op %d: gate %s moved from %v to %v", i, name, xy, loc[name])
				break
			}
		}
		e.rep.record(ck)

		if e.tr == nil {
			continue
		}
		if !traced {
			untracedLat = append(untracedLat, lat[len(lat)-1])
			continue
		}
		tracedLat = append(tracedLat, lat[len(lat)-1])
		req := fmt.Sprintf("op%d", i)
		root := e.tr.add(0, req, "op", t0, t2)
		e.tr.add(root, req, "rapids.clone", t0, t1)
		e.tr.addEvents(e.tr.add(root, req, "rapids.optimize", t1, t2), req, t1, evs)
		split.add(evs)
	}
	window, cpu := time.Since(w0), selfCPU()-cpu0
	if first == nil {
		return fmt.Errorf("no op succeeded")
	}

	r := e.rep
	if e.tr == nil {
		r.add("setup_s", median(setups), "s", len(setups))
		r.add("ops_per_s", float64(len(lat))/busy.Seconds(), "ops/s", len(lat))
		r.percentile("latency_p50_ms", lat, 50, "ms")
		r.percentile("latency_p90_ms", lat, 90, "ms")
		r.add("delay_improve_pct", first.ImprovementPct(), "%", len(lat))
		rss, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		r.add("peak_rss_mb", rss, "MB", 1)
		return nil
	}

	// Traced run: the layer split of the traced ops, the engine counters
	// of the (deterministic) result, and the probes.
	nt := len(tracedLat)
	spans := e.tr.snapshot()
	cover := childCover(spans)
	var optimizeMS []float64
	for _, s := range spans {
		if s.Name != "rapids.optimize" {
			continue
		}
		optimizeMS = append(optimizeMS, ms(s.dur()))
		var ck checks
		ck.expect(cover[s.ID] >= s.dur()*98/100, "%s: events cover %.1f%% of Optimize (< 98%%)", s.Request, 100*float64(cover[s.ID])/float64(s.dur()))
		r.record(ck)
	}
	r.add("rapids.optimize_ms", mean(optimizeMS), "ms", nt)
	e.addProcess(cpu, window, len(lat))
	e.traceOverhead(tracedLat, untracedLat)
	split.report(r)
	addResultCounters(r, first, float64(split.applied)/float64(nt), len(lat))
	addSelfTimes(r, spans, nt)
	if err := probeLayers(e, base); err != nil {
		return err
	}
	return probeSession(e, base)
}

// eventSplit accumulates the Event streams of traced Optimize runs:
// the layer split the facade itself reports.
type eventSplit struct {
	runs    int
	seed    []float64          // EventStart.Elapsed, ms
	verify  []float64          // EventVerify.Elapsed, ms
	phase   map[string]float64 // summed EventPhase.Elapsed by phase, ms
	applied int                // moves the phases committed
}

func (s *eventSplit) add(evs []rapids.Event) {
	if s.phase == nil {
		s.phase = map[string]float64{}
	}
	s.runs++
	for _, ev := range evs {
		switch ev.Kind {
		case rapids.EventStart:
			s.seed = append(s.seed, ms(ev.Elapsed))
		case rapids.EventPhase:
			s.phase[ev.Phase] += ms(ev.Elapsed)
			s.applied += ev.Applied
		case rapids.EventVerify:
			s.verify = append(s.verify, ms(ev.Elapsed))
		}
	}
}

// report adds rapids.seed_ms, rapids.verify_ms and opt.<phase>_ms for
// every phase the runs reported, all per run.
func (s *eventSplit) report(r *report) {
	r.add("rapids.seed_ms", mean(s.seed), "ms", len(s.seed))
	r.add("rapids.verify_ms", mean(s.verify), "ms", len(s.verify))
	names := make([]string, 0, len(s.phase))
	for p := range s.phase {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		r.add("opt."+strings.ReplaceAll(p, "-", "_")+"_ms", s.phase[p]/float64(s.runs), "ms", s.runs)
	}
}

// addResultCounters adds the engine-room counters of one Optimize
// result; applied is the number of moves its phases committed.
func addResultCounters(r *report, res *rapids.Result, applied float64, n int) {
	r.add("opt.evals", float64(res.Evals.Candidates()), "count", n)
	r.add("opt.moves", float64(res.Evals.Moves), "count", n)
	r.add("opt.phases", float64(res.Evals.Phases), "count", n)
	r.add("opt.applied_ratio", applied/float64(max(res.Evals.Moves, 1)), "ratio", n)
	r.add("opt.evals_per_ms", float64(res.Evals.Candidates())/ms(res.Elapsed), "1/ms", n)
	r.add("sta.full_analyses", float64(res.Timer.FullAnalyses), "count", n)
	r.add("sta.incremental_updates", float64(res.Timer.IncrementalUpdates), "count", n)
	r.add("sta.avg_dirty", res.Timer.AvgDirty, "count", n)
	r.add("supergate.full_extractions", float64(res.Extractor.FullExtractions), "count", n)
	r.add("supergate.incremental_flushes", float64(res.Extractor.IncrementalFlushes), "count", n)
	r.add("supergate.reextracted", float64(res.Extractor.Reextracted), "count", n)
	r.add("region.rounds", float64(res.Iterations), "count", n)
}
