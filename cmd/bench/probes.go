package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/library"
	"repro/internal/network"
	"repro/internal/opt"
	"repro/internal/region"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/supergate"
	"repro/rapids"
	"repro/rapids/server/journal"
)

// timeMedian runs fn reps times and returns the median wall time in ms.
func timeMedian(reps int, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs), nil
}

// probeLayers times each layer's entry point directly on c, the
// workload's own placed input (left unmodified), the way bench_test.go's
// micro-benchmarks do, and adds the probe metrics: the median of reps
// calls each.
func probeLayers(e *env, c *rapids.Circuit) error {
	reps := 5
	if e.quick {
		reps = 2
	}
	lib := library.Default035()
	n := c.Clone().Network()
	probe := func(name string, reps int, fn func() error) error {
		v, err := timeMedian(reps, fn)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		e.rep.add(name, v, "ms", reps)
		return nil
	}

	if err := probe("sta.analyze_ms", reps, func() error { sta.Analyze(n, lib, 0); return nil }); err != nil {
		return err
	}
	if err := probe("supergate.extract_ms", reps, func() error { supergate.Extract(n); return nil }); err != nil {
		return err
	}

	// One min-slack scoring phase with the default pool and with one
	// worker: their ratio is the scoring pool's parallel efficiency.
	tm := sta.Analyze(n, lib, 0)
	ext := supergate.Extract(n)
	o := opt.Options{MaxIters: 1, MaxSwapLeaves: 48}
	for _, arm := range []struct {
		name    string
		workers int
	}{{"opt.score_ms", 0}, {"opt.score_w1_ms", 1}} {
		eng := opt.NewEngine(arm.workers)
		err := probe(arm.name, reps, func() error { eng.Moves(tm, opt.GsgGS, sizing.MinSlack, o, ext); return nil })
		evals := eng.Stats().Candidates() / reps
		eng.Release()
		if err != nil {
			return err
		}
		if arm.workers == 1 {
			e.rep.add("opt.score_evals", float64(evals), "count", reps)
		}
	}

	// One accepted region-scheduler round with the optimizer taken out:
	// partition, extract, snapshot, stitch back, acyclicity check, and
	// the reconciling re-analysis (BenchmarkRegionRoundTrip).
	rn := c.Clone().Network()
	rtm := sta.AnalyzeReleased(rn, lib, 0, nil)
	err := probe("region.roundtrip_ms", reps, func() error {
		part := region.Build(rn, rtm, region.Options{Window: region.DefaultWindow, MaxRegions: 8})
		for _, r := range part.Regions {
			x := region.Extract(rn, rtm, r)
			x.Snapshot()
			region.Stitch(rn, x.Net, r.Interior)
		}
		if err := rn.CheckAcyclic(); err != nil {
			return err
		}
		clock := rtm.Clock
		sta.ReleaseTiming(rtm)
		rtm = sta.AnalyzeReleased(rn, lib, clock, nil)
		return nil
	})
	sta.ReleaseTiming(rtm)
	if err != nil {
		return err
	}

	// Touch advances the epoch, so every Snapshot captures afresh, as a
	// session publish after an edit does.
	var g *network.Gate
	n.Gates(func(x *network.Gate) {
		if g == nil && !x.IsInput() {
			g = x
		}
	})
	if err := probe("network.snapshot_ms", 4*reps, func() error { n.Touch(g); n.Snapshot(); return nil }); err != nil {
		return err
	}

	orig := c.Clone()
	if err := probe("sim.verify_ms", reps, func() error {
		return orig.EquivalentTo(c, rapids.DefaultVerifyRounds, 1)
	}); err != nil {
		return err
	}

	// A session-edit-sized entry appended to a journal file in the
	// run's temporary directory, as rapidsd journals every edit batch.
	j, err := journal.OpenFile(filepath.Join(e.tmp, "probe.journal"))
	if err != nil {
		return err
	}
	entry := journal.Entry{
		Op: journal.OpSessionEdit, JobID: "s1-0123abcd", Key: "0123456789abcdef", Seq: 1,
		Request: []byte(`{"edits":[{"kind":"resize","gate":"g1234","size":2}]}`),
	}
	err = probe("journal.append_ms", 40*reps, func() error { return j.Append(entry) })
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return err
}

// sessionStats are the facade-level session timings of one edit stream.
type sessionStats struct {
	begin   time.Duration
	apply   []float64 // Apply wall, ms
	retime  []float64 // Delta.Elapsed: mutation + incremental re-timing, ms
	changed []float64 // Delta.ChangedSlacks per Apply
	reopt   []float64 // Reoptimize Delta.Elapsed, ms
	finalNS float64
}

// replaySession drives an in-process session on c with the batches next
// yields (given the worst path the session last reported) until it
// returns false, timing every Apply and Reoptimize; a batch without an
// edit only re-optimizes. With a tracer, each
// call becomes a span whose child covers the Delta's Elapsed (mutation
// and re-timing), so the span's self time is validation plus publishing
// the new view.
func replaySession(tr *tracer, req string, c *rapids.Circuit, next func(i int, crit []rapids.PathStage) (editBatch, bool)) (*sessionStats, error) {
	st := &sessionStats{}
	t0 := time.Now()
	s, err := c.BeginSession(context.Background())
	if err != nil {
		return nil, err
	}
	defer s.Close()
	st.begin = time.Since(t0)
	tr.add(0, req, "rapids.session.begin", t0, t0.Add(st.begin))
	crit := s.View().CriticalPath
	for i := 0; ; i++ {
		b, ok := next(i, crit)
		if !ok {
			break
		}
		id := fmt.Sprintf("%s/%d", req, i)
		if b.Edit.Gate != "" {
			t := time.Now()
			d, err := s.Apply(b.Edit)
			if err != nil {
				return nil, fmt.Errorf("batch %d: %w", i, err)
			}
			a := time.Since(t)
			tr.add(tr.add(0, id, "rapids.session.apply", t, t.Add(a)), id, "rapids.session.retime", t, t.Add(d.Elapsed))
			st.apply = append(st.apply, ms(a))
			st.retime = append(st.retime, ms(d.Elapsed))
			st.changed = append(st.changed, float64(len(d.ChangedSlacks)))
			crit = d.CriticalPath
		}
		if b.Reopt {
			t := time.Now()
			d, err := s.Reoptimize(context.Background())
			if err != nil {
				return nil, fmt.Errorf("batch %d: %w", i, err)
			}
			tr.add(tr.add(0, id, "rapids.session.reoptimize", t, time.Now()), id, "opt.reoptimize", t, t.Add(d.Elapsed))
			st.reopt = append(st.reopt, ms(d.Elapsed))
			crit = d.CriticalPath
		}
	}
	st.finalNS = s.View().DelayNS
	return st, nil
}

// addSession adds the rapids.session.* metrics of st: means per Apply.
func (e *env) addSession(st *sessionStats) {
	n := len(st.apply)
	e.rep.add("rapids.session.apply_ms", mean(st.apply), "ms", n)
	e.rep.add("rapids.session.retime_ms", mean(st.retime), "ms", n)
	e.rep.add("rapids.session.publish_ms", mean(st.apply)-mean(st.retime), "ms", n)
	e.rep.add("rapids.session.changed_slacks", mean(st.changed), "count", n)
}

// probeSession replays a generated edit stream through an in-process
// session on c, for the workloads whose own ops never edit.
func probeSession(e *env, c *rapids.Circuit) error {
	batches, reoptEvery := 100, 100
	if e.quick {
		batches, reoptEvery = 10, 5
	}
	gen := newEditGen(e.seed, 0, newEditTable(c), c.DelayNS(), reoptEvery)
	st, err := replaySession(nil, "", c.Clone(), func(i int, crit []rapids.PathStage) (editBatch, bool) {
		if i == batches {
			return editBatch{}, false
		}
		return gen.next(crit), true
	})
	if err != nil {
		return fmt.Errorf("session probe: %w", err)
	}
	e.addSession(st)
	return nil
}
