package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"time"

	"repro/rapids"
	"repro/rapids/server"
)

// ecoPlaceSeeds fixes the two sessions' placements for the reason
// optPlaceSeed gives; -seed drives the edit streams.
var ecoPlaceSeeds = [2]int64{1, 2}

// ecoClient is one eco-session client: its session on rapidsd, its edit
// generator, and what it observed.
type ecoClient struct {
	id        string
	placeSeed int64
	clock     float64
	crit      []rapids.PathStage
	gen       *editGen
	batches   []editBatch // every applied batch, for the in-process replay
	last      *rapids.Delta
	warmGain  float64 // delay gain of the set-up's re-optimization, %

	traced  []bool
	t0, t1  []time.Time
	lat     []float64 // round trip, ms
	respKB  []float64
	retime  []float64 // server-side Delta.Elapsed of the edit, ms
	touched []float64
	full    int
	gain    []float64 // delay gain of each re-optimization in the window, %
}

type editRequest struct {
	Edits      []rapids.Edit `json:"edits,omitempty"`
	Reoptimize bool          `json:"reoptimize,omitempty"`
}

// openSession opens a session on ckt placed with placeSeed and runs one
// re-optimization pass on it: the set-up's warm-up op, whose gain is
// the workload's delay_improve_pct.
func (d *daemon) openSession(ckt string, placeSeed int64) (*ecoClient, error) {
	code, body, err := d.post("/v1/sessions", server.SessionRequest{
		Generate: ckt, Place: &server.PlaceSpec{Seed: placeSeed},
	})
	if err != nil {
		return nil, err
	}
	if code != http.StatusCreated {
		return nil, fmt.Errorf("POST /v1/sessions: HTTP %d: %s", code, body)
	}
	var st server.SessionStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, err
	}
	c := &ecoClient{id: st.ID, placeSeed: placeSeed, clock: st.ClockNS}
	deltas, _, err := d.edit(c, editBatch{Reopt: true})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	c.warmGain = gainPct(deltas[0])
	return c, nil
}

func (d *daemon) timing(id string) (*rapids.TimingView, error) {
	code, body, err := d.get("/v1/sessions/" + id + "/timing")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET timing: HTTP %d: %s", code, body)
	}
	var v rapids.TimingView
	return &v, json.Unmarshal(body, &v)
}

// edit sends one batch (an edit, a re-optimization, or both) and
// returns its deltas and the reply's size; the client keeps the batch
// for the replay and the last delta's worst path for its generator.
func (d *daemon) edit(c *ecoClient, b editBatch) ([]*rapids.Delta, int, error) {
	req := editRequest{Reoptimize: b.Reopt}
	if b.Edit.Gate != "" {
		req.Edits = []rapids.Edit{b.Edit}
	}
	code, body, err := d.post("/v1/sessions/"+c.id+"/edits", req)
	if err != nil {
		return nil, 0, err
	}
	if code != http.StatusOK {
		return nil, 0, fmt.Errorf("edit %v: HTTP %d: %s", b.Edit, code, body)
	}
	var resp server.EditResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, 0, err
	}
	want := len(req.Edits)
	if b.Reopt {
		want++
	}
	if len(resp.Deltas) != want {
		return nil, 0, fmt.Errorf("edit %v: %d deltas, want %d", b.Edit, len(resp.Deltas), want)
	}
	c.batches = append(c.batches, b)
	c.last = resp.Deltas[len(resp.Deltas)-1]
	c.crit = c.last.CriticalPath
	return resp.Deltas, len(body), nil
}

// gainPct is the delay gain of a mutation, in percent.
func gainPct(d *rapids.Delta) float64 { return 100 * (d.PrevDelayNS - d.DelayNS) / d.PrevDelayNS }

// measure sends the client's next generated batch and records it.
func (d *daemon) measure(c *ecoClient, traced bool) error {
	b := c.gen.next(c.crit)
	t0 := time.Now()
	deltas, size, err := d.edit(c, b)
	t1 := time.Now()
	if err != nil {
		return err
	}
	c.traced = append(c.traced, traced)
	c.t0, c.t1 = append(c.t0, t0), append(c.t1, t1)
	c.lat = append(c.lat, ms(t1.Sub(t0)))
	c.respKB = append(c.respKB, float64(size)/1024)
	c.retime = append(c.retime, ms(deltas[0].Elapsed))
	for _, dl := range deltas {
		c.touched = append(c.touched, float64(dl.TouchedGates))
		if dl.FullReanalysis {
			c.full++
		}
	}
	if b.Reopt {
		c.gain = append(c.gain, gainPct(deltas[1]))
	}
	return nil
}

// runEco is eco-session: the same rapidsd binary, two clients, each
// with its own session on s38417, sending single-edit batches in a
// closed loop (see editGen).
func runEco(e *env) error {
	ckt, batches, reoptEvery := "s38417", e.opCount(32, 12), 100
	if e.quick {
		ckt, reoptEvery = "alu2", 5
	}
	tmpl, err := rapids.Generate(ckt)
	if err != nil {
		return err
	}
	tab := newEditTable(tmpl)

	var clients [2]*ecoClient
	d, setups, err := setUpDaemon(e, func(d *daemon) error {
		for c := range clients {
			var err error
			if clients[c], err = d.openSession(ckt, ecoPlaceSeeds[c]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer d.stop()
	s0, err := d.sample()
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	w0 := time.Now()
	for c, cl := range clients {
		cl.gen = newEditGen(e.seed, c, tab, cl.clock, reoptEvery)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				var ck checks
				if err := d.measure(cl, e.tracedOp(i)); err != nil {
					ck.expect(false, "session %s batch %d: %v", cl.id, i, err)
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
	for _, cl := range clients {
		view, err := d.timing(cl.id)
		var ck checks
		ck.expect(err == nil, "session %s: GET timing: %v", cl.id, err)
		if err == nil {
			ck.expect(view.Seq == cl.last.Seq && view.DelayNS == cl.last.DelayNS && view.LatenessNS == cl.last.LatenessNS &&
				reflect.DeepEqual(view.CriticalPath, cl.last.CriticalPath),
				"session %s: GET timing (seq %d, %.12g ns) differs from its last delta (seq %d, %.12g ns)",
				cl.id, view.Seq, view.DelayNS, cl.last.Seq, cl.last.DelayNS)
		}
		e.rep.record(ck)
		if code, err := d.del("/v1/sessions/" + cl.id); err != nil || code != http.StatusOK {
			return fmt.Errorf("close session %s: HTTP %d %v", cl.id, code, err)
		}
	}
	rss, err := d.close()
	if err != nil {
		return err
	}

	var lat, warmGain, gain, respKB, touched, retime []float64
	full := 0
	for _, cl := range clients {
		lat = append(lat, cl.lat...)
		warmGain = append(warmGain, cl.warmGain)
		gain = append(gain, cl.gain...)
		respKB = append(respKB, cl.respKB...)
		touched = append(touched, cl.touched...)
		retime = append(retime, cl.retime...)
		full += cl.full
	}
	ops := len(lat)
	if ops == 0 {
		return fmt.Errorf("no edit succeeded")
	}
	r := e.rep
	if e.tr == nil {
		r.add("setup_s", median(setups), "s", len(setups))
		r.add("ops_per_s", float64(ops)/window.Seconds(), "ops/s", ops)
		r.percentile("latency_p50_ms", lat, 50, "ms")
		r.percentile("latency_p90_ms", lat, 90, "ms")
		r.add("delay_improve_pct", mean(warmGain), "%", len(warmGain))
		r.add("reopt_gain_pct", mean(gain), "%", len(gain))
		r.add("peak_rss_mb", rss, "MB", 1)
		return nil
	}

	// Traced run: replay both edit streams through in-process sessions
	// on identically placed circuits, which splits an edit into the
	// facade's layers and must reach the same final delay.
	var tracedLat, untracedLat []float64
	for _, cl := range clients {
		for i := range cl.lat {
			if cl.traced[i] {
				tracedLat = append(tracedLat, cl.lat[i])
				e.tr.add(0, fmt.Sprintf("%s/%d", cl.id, i), "edit", cl.t0[i], cl.t1[i])
			} else {
				untracedLat = append(untracedLat, cl.lat[i])
			}
		}
	}
	traceEnd := len(e.tr.snapshot())
	all := &sessionStats{}
	var probeInput *rapids.Circuit
	for _, cl := range clients {
		c, err := e.placed(ckt, cl.placeSeed)
		if err != nil {
			return err
		}
		if probeInput == nil {
			probeInput = c.Clone()
		}
		st, err := replaySession(e.tr, cl.id, c, func(i int, _ []rapids.PathStage) (editBatch, bool) {
			if i == len(cl.batches) {
				return editBatch{}, false
			}
			return cl.batches[i], true
		})
		if err != nil {
			return fmt.Errorf("replay of %s: %w", cl.id, err)
		}
		var ck checks
		ck.expect(st.finalNS == cl.last.DelayNS, "replay of %s ends at %.12g ns, the HTTP session at %.12g ns", cl.id, st.finalNS, cl.last.DelayNS)
		r.record(ck)
		all.begin += st.begin / time.Duration(len(clients))
		all.apply = append(all.apply, st.apply...)
		all.retime = append(all.retime, st.retime...)
		all.changed = append(all.changed, st.changed...)
		all.reopt = append(all.reopt, st.reopt...)
	}
	r.add("rapids.optimize_ms", mean(all.reopt), "ms", len(all.reopt))
	r.add("rapids.seed_ms", ms(all.begin), "ms", len(clients))
	e.addProcess(s1.cpu-s0.cpu, window, ops)
	e.traceOverhead(tracedLat, untracedLat)
	e.addSession(all)
	r.add("server.session_overhead_ms", mean(lat)-mean(all.apply), "ms", ops)
	r.add("server.retime_ms", mean(retime), "ms", ops)
	r.add("server.edit_response_kb", mean(respKB), "KB", ops)
	r.add("sta.touched_gates", mean(touched), "count", len(touched))
	r.add("sta.full_reanalysis_frac", float64(full)/float64(len(touched)), "ratio", len(touched))
	r.add("journal.appends_per_op", delta(s0, s1, "rapidsd_journal_appends_total")/float64(ops), "count", ops)
	addSelfTimes(r, e.tr.snapshot()[traceEnd:], len(all.apply))
	return probeLayers(e, probeInput)
}
