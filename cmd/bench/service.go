package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/rapids"
	"repro/rapids/server"
)

// jobRun is one submission as the client saw it.
type jobRun struct {
	spec          jobSpec
	code          int // POST status
	t0, t1, t2    time.Time
	status        server.JobStatus
	result        json.RawMessage // the end frame's result, byte for byte
	evs           []rapids.Event
	traced        bool
	eventsElapsed time.Duration
}

func (j *jobRun) latency() time.Duration { return j.t2.Sub(j.t0) }

// submit POSTs spec with default options and follows its SSE stream to
// the end frame; t1 marks the POST's reply and t2 the end frame.
func (d *daemon) submit(spec jobSpec) (*jobRun, error) {
	j := &jobRun{spec: spec, t0: time.Now()}
	code, body, err := d.post("/v1/jobs", server.JobRequest{
		Generate: spec.Circuit, Place: &server.PlaceSpec{Seed: spec.PlaceSeed},
	})
	j.t1 = time.Now()
	if err != nil {
		return nil, err
	}
	j.code = code
	var st server.JobStatus
	if code != http.StatusOK && code != http.StatusAccepted {
		return nil, fmt.Errorf("POST /v1/jobs: HTTP %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("POST /v1/jobs: %w", err)
	}
	evs, end, err := d.followJob(st.ID)
	j.t2 = time.Now()
	if err != nil {
		return nil, fmt.Errorf("job %s: %w", st.ID, err)
	}
	var raw struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(end, &j.status); err != nil {
		return nil, fmt.Errorf("job %s end frame: %w", st.ID, err)
	}
	if err := json.Unmarshal(end, &raw); err != nil {
		return nil, fmt.Errorf("job %s end frame: %w", st.ID, err)
	}
	j.result, j.evs = raw.Result, evs
	for _, ev := range evs {
		j.eventsElapsed += ev.Elapsed
	}
	return j, nil
}

// runService is service-mixed: a real rapidsd with its defaults plus a
// journal, driven by two closed-loop clients over at most two
// connections. Each client submits its own seeded job stream (see
// jobGen) and follows every job's SSE stream to the end frame.
func runService(e *env) error {
	circuits := serviceCircuits
	if e.quick {
		circuits = []string{"c432", "alu2"}
	}
	// Whole blocks only, so every run submits the same circuit mix.
	blockLen := newJobGen(0, 0, circuits).blockLen()
	jobs := (e.opCount(5, 6) + blockLen - 1) / blockLen * blockLen

	// The warm-up job's placement seed 1 is one no client draws.
	d, setups, err := setUpDaemon(e, func(d *daemon) error {
		_, err := d.submit(jobSpec{Circuit: circuits[0], PlaceSeed: 1})
		return err
	})
	if err != nil {
		return err
	}
	defer d.stop()
	s0, err := d.sample()
	if err != nil {
		return err
	}
	var (
		wg   sync.WaitGroup
		runs [2][]*jobRun
	)
	w0 := time.Now()
	for c := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := newJobGen(e.seed, c, circuits)
			cold := map[jobSpec]json.RawMessage{}
			for i := 0; i < jobs; i++ {
				spec := gen.next()
				j, err := d.submit(spec)
				var ck checks
				if err != nil {
					ck.expect(false, "client %d job %d: %v", c, i, err)
					e.rep.record(ck)
					continue
				}
				// Whole blocks are traced or not, so both halves of a
				// traced run hold the same circuit mix.
				j.traced = e.tracedOp(i / blockLen)
				runs[c] = append(runs[c], j)
				st := j.status
				ck.expect(st.State == server.StateDone, "job %s: state %s (%s)", st.ID, st.State, st.Error)
				ck.expect(st.Result != nil && st.Result.Verification == rapids.VerifyPassed, "job %s: verification not passed", st.ID)
				ck.expect(st.QueuedFor+st.RanFor <= j.latency(), "job %s: queued %v + ran %v exceeds its latency %v", st.ID, st.QueuedFor, st.RanFor, j.latency())
				key := spec
				key.Hit = false
				if spec.Hit {
					ck.expect(j.code == http.StatusOK && st.Cached, "job %s: resubmission of %v was not a cache hit (HTTP %d)", st.ID, key, j.code)
					ck.expect(bytes.Equal(j.result, cold[key]), "job %s: cached result differs from its cold run", st.ID)
				} else {
					ck.expect(j.code == http.StatusAccepted, "job %s: cold submission answered HTTP %d", st.ID, j.code)
					cold[key] = j.result
				}
				e.rep.record(ck)
			}
		}()
	}
	wg.Wait()
	window := time.Since(w0)
	s1, err := d.sample()
	if err != nil {
		return err
	}
	rss, err := d.close()
	if err != nil {
		return err
	}

	all := append(runs[0], runs[1]...)
	var lat, hitLat, improve []float64
	for _, j := range all {
		lat = append(lat, ms(j.latency()))
		switch {
		case j.spec.Hit:
			hitLat = append(hitLat, ms(j.latency()))
		case j.status.Result != nil:
			improve = append(improve, j.status.Result.ImprovementPct())
		}
	}
	r := e.rep
	if e.tr == nil {
		r.add("setup_s", median(setups), "s", len(setups))
		r.add("ops_per_s", float64(len(all))/window.Seconds(), "ops/s", len(all))
		r.percentile("latency_p50_ms", lat, 50, "ms")
		r.percentile("latency_p90_ms", lat, 90, "ms")
		r.percentile("hit_latency_p50_ms", hitLat, 50, "ms")
		r.add("delay_improve_pct", mean(improve), "%", len(improve))
		r.add("peak_rss_mb", rss, "MB", 1)
		return nil
	}

	// Traced run: rebuild each traced job's spans from the client's
	// clock and the server's own accounting, then split its latency.
	var tracedLat, untracedLat, optimize, submit, queue, run, loadPlace, overhead []float64
	var split eventSplit
	var moves, evals float64
	for i, j := range all {
		if !j.traced {
			untracedLat = append(untracedLat, ms(j.latency()))
			continue
		}
		tracedLat = append(tracedLat, ms(j.latency()))
		submit = append(submit, ms(j.t1.Sub(j.t0)))
		req := fmt.Sprintf("job%d", i)
		root := e.tr.add(0, req, "job", j.t0, j.t2)
		e.tr.add(root, req, "server.submit", j.t0, j.t1)
		st := j.status
		if j.spec.Hit || st.Result == nil {
			continue
		}
		qEnd := j.t0.Add(st.QueuedFor)
		rEnd := qEnd.Add(st.RanFor)
		e.tr.add(root, req, "server.queue", j.t0, qEnd)
		runID := e.tr.add(root, req, "server.run", qEnd, rEnd)
		evStart := rEnd.Add(-j.eventsElapsed)
		e.tr.add(runID, req, "server.load_place", qEnd, evStart)
		e.tr.addEvents(runID, req, evStart, j.evs)
		queue = append(queue, ms(st.QueuedFor))
		run = append(run, ms(st.RanFor))
		loadPlace = append(loadPlace, ms(st.RanFor-j.eventsElapsed))
		overhead = append(overhead, ms(j.latency()-st.QueuedFor-st.RanFor))
		optimize = append(optimize, ms(j.eventsElapsed))
		split.add(j.evs)
		moves += float64(st.Result.Evals.Moves)
		evals += float64(st.Result.Evals.Candidates())
	}
	// The probes run on the mix's largest circuit.
	c, err := e.placed(circuits[len(circuits)-1], 1)
	if err != nil {
		return err
	}
	r.add("rapids.optimize_ms", mean(optimize), "ms", len(optimize))
	e.addProcess(s1.cpu-s0.cpu, window, len(all))
	e.traceOverhead(tracedLat, untracedLat)
	split.report(r)
	r.add("opt.evals", evals/float64(split.runs), "count", split.runs)
	r.add("opt.applied_ratio", float64(split.applied)/max(moves, 1), "ratio", split.runs)
	r.add("server.submit_ms", mean(submit), "ms", len(submit))
	r.add("server.queue_wait_ms", mean(queue), "ms", len(queue))
	r.add("server.run_ms", mean(run), "ms", len(run))
	r.add("server.load_place_ms", mean(loadPlace), "ms", len(loadPlace))
	r.add("server.overhead_ms", mean(overhead), "ms", len(overhead))
	subs := delta(s0, s1, `rapidsd_submissions_total{outcome="accepted"}`) + delta(s0, s1, `rapidsd_submissions_total{outcome="cache_hit"}`)
	r.add("server.cache_hit_ratio", delta(s0, s1, "rapidsd_cache_hits_total")/subs, "ratio", int(subs))
	r.add("journal.appends_per_op", delta(s0, s1, "rapidsd_journal_appends_total")/float64(len(all)), "count", len(all))
	addSelfTimes(r, e.tr.snapshot(), len(tracedLat))
	if err := probeLayers(e, c); err != nil {
		return err
	}
	return probeSession(e, c)
}
