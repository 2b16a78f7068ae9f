package main

// TestFleetSmoke is `make fleet-smoke`: the multi-replica acceptance
// test with real binaries (DESIGN.md §5c). Two rapidsd processes share
// a result-store directory and route jobs over a consistent-hash ring
// (-peers/-self); a seed grid is submitted to both, one replica is
// SIGKILLed mid-batch and restarted on the same port, journal, and
// store, and the fleet must still deliver every result byte-identical
// to an uninterrupted single-process facade run — with the summed
// metrics reconciliation identity intact across the crash.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/rapids"
	"repro/rapids/server"
)

// freePort reserves a free TCP port and releases it for the daemon to
// bind. Fleet replicas must know every peer's URL before any of them
// starts, so ports are picked up front instead of using :0.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

// waitReady polls /readyz until it answers 200.
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %s never became ready", base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots, kills, and restarts a 2-replica fleet")
	}
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	ports := []int{freePort(t), freePort(t)}
	urls := []string{
		fmt.Sprintf("http://127.0.0.1:%d", ports[0]),
		fmt.Sprintf("http://127.0.0.1:%d", ports[1]),
	}
	peers := urls[0] + "," + urls[1]
	replicaArgs := func(i int) []string {
		return []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-store", storeDir,
			"-peers", peers,
			"-self", urls[i],
			"-journal", filepath.Join(dir, fmt.Sprintf("replica%d.journal", i)),
			"-queue", "64", "-opt-workers", "1", "-drain-timeout", "30s",
		}
	}
	d0 := startDaemon(t, replicaArgs(0)...)
	d1 := startDaemon(t, replicaArgs(1)...)
	waitReady(t, d0.base)
	waitReady(t, d1.base)
	if d0.base != urls[0] || d1.base != urls[1] {
		t.Fatalf("replicas bound %s/%s, want %s/%s", d0.base, d1.base, urls[0], urls[1])
	}

	// A seed grid of distinct specs — every first submission is a real
	// run placed on its ring owner; the duplicate submission to the
	// other replica must be a hit, never a re-run.
	verify := 4
	var reqs []server.JobRequest
	for _, bench := range []string{"c432", "c499", "alu2"} {
		for seed := int64(1); seed <= 4 && len(reqs) < 12; seed++ {
			reqs = append(reqs, server.JobRequest{
				Generate: bench,
				Place:    &server.PlaceSpec{Seed: seed, Moves: 5},
				Options:  rapids.Spec{Iters: 1, Workers: 1, VerifyRounds: &verify},
			})
		}
	}

	// Each request goes to replica 0 and then to replica 1, in that
	// order, so by the time replica 1 sees a spec a finished result
	// exists somewhere in the fleet; up to 8 requests are in flight.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	var retries atomic.Int64
	rows := make([][]server.JobStatus, len(reqs))
	errs := make([]error, len(reqs))
	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for k, url := range urls {
				st, err := submitAndWait(ctx, &retries, url, req)
				if err != nil {
					errs[i] = fmt.Errorf("%s seed %d via replica %d: %w", req.Generate, req.Place.Seed, k, err)
					return
				}
				rows[i] = append(rows[i], st)
			}
		}()
	}
	fleetDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(fleetDone)
	}()

	// SIGKILL replica 1 once the batch is in flight with some — but not
	// all — jobs done, so the crash lands on a mix of running, queued,
	// and forwarded work.
	killDeadline := time.Now().Add(120 * time.Second)
	for {
		_, done0 := jobCounts(d0.base)
		_, done1 := jobCounts(d1.base)
		if done0+done1 >= 2 {
			break
		}
		if time.Now().After(killDeadline) {
			t.Fatal("kill point never reached")
		}
		time.Sleep(20 * time.Millisecond)
	}
	d1.kill(t)

	// Restart it on the same port, journal, and store directory. The
	// journal replays its accepted jobs; the store still holds every
	// result the first incarnation published.
	d1b := startDaemon(t, replicaArgs(1)...)
	waitReady(t, d1b.base)
	if d1b.base != urls[1] {
		t.Fatalf("restarted replica bound %s, want %s", d1b.base, urls[1])
	}

	select {
	case <-fleetDone:
	case <-ctx.Done():
		t.Fatal("fleet batch did not finish after the restart")
	}
	if err := errors.Join(errs...); err != nil {
		t.Fatalf("fleet: %v", err)
	}

	// The fleet invariants must hold across the crash: every submission
	// done, byte-identical results across replicas, every duplicate
	// served from a cache or the shared store, and every result equal
	// to the single-replica oracle — an uninterrupted in-process facade
	// run of the same spec.
	for i, fr := range rows {
		want := uninterruptedRun(t, reqs[i])
		var first []byte
		for k, st := range fr {
			if st.State != server.StateDone || st.Result == nil {
				t.Fatalf("%s seed %d via replica %d: %+v", reqs[i].Generate, reqs[i].Place.Seed, k, st)
			}
			b, err := json.Marshal(st.Result)
			if err != nil {
				t.Fatal(err)
			}
			if k == 0 {
				first = b
			} else {
				if !bytes.Equal(b, first) {
					t.Fatalf("%s seed %d via replica %d: result differs from replica 0's — determinism broken across the fleet",
						reqs[i].Generate, reqs[i].Place.Seed, k)
				}
				if !st.Cached {
					t.Fatalf("%s seed %d via replica %d: re-ran the optimizer instead of hitting a cache or the shared store",
						reqs[i].Generate, reqs[i].Place.Seed, k)
				}
			}
			got, w := *st.Result, *want
			got.Elapsed, w.Elapsed = 0, 0
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("%s seed %d via replica %d: result diverged from the single-replica oracle:\nwant %+v\ngot  %+v",
					reqs[i].Generate, reqs[i].Place.Seed, k, w, got)
			}
		}
	}
	scrapes := make([]map[string]float64, len(urls))
	for k, url := range urls {
		scrapes[k] = scrapeMetrics(t, url)
	}
	if err := fleetIdentity(scrapes); err != nil {
		t.Fatal(err)
	}
	t.Logf("fleet survived SIGKILL: %d specs x %d replicas, %d retries ridden out, store at %s",
		len(reqs), len(urls), retries.Load(), storeDir)

	// Dedupe, as the clients observed it: exactly one submission per spec
	// ran the optimizer and every other one was a cache or store hit
	// (checked above for each duplicate). The scraped
	// hit counters cannot show this: the SIGKILLed replica restarts with
	// a zeroed registry, so hits it served before the crash drop out of
	// the summed scrapes.
	cached := 0
	for _, fr := range rows {
		for _, st := range fr {
			if st.Cached {
				cached++
			}
		}
	}
	if dups := len(reqs) * (len(urls) - 1); cached != dups {
		t.Fatalf("dedupe: %d submissions served as hits, want exactly the %d duplicates", cached, dups)
	}
}

// submitAndWait posts req to base and polls the job to a terminal
// state, riding out a restarting fleet (rideOut) on every request.
func submitAndWait(ctx context.Context, retries *atomic.Int64, base string, req server.JobRequest) (server.JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return server.JobStatus{}, err
	}
	code, b, err := rideOut(ctx, retries, http.MethodPost, base+"/v1/jobs", body)
	if err != nil {
		return server.JobStatus{}, err
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		return server.JobStatus{}, fmt.Errorf("submit: %d: %s", code, bytes.TrimSpace(b))
	}
	var st server.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return st, err
	}
	if st.State != server.StateQueued && st.State != server.StateRunning {
		return st, nil
	}
	return pollTerminal(ctx, retries, base, st.ID)
}

// scrapeMetrics fetches and parses one replica's GET /metrics.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/metrics: %d", base, resp.StatusCode)
	}
	m, err := metrics.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fleetIdentity checks the reconciliation identity of DESIGN.md §5b on
// the summed absolute counters of a fleet's /metrics scrapes:
//
//	submissions{accepted|cache_hit|store_hit} + journal_replayed{reborn|requeued}
//	    == jobs_completed{done|canceled|failed} + queue_depth + workers_busy
//
// It holds for each replica from zero — a forwarded submission counts
// only on its owner (the forwarder's routed{forwarded} is outside the
// funnel) — so it holds for any sum of replicas, restarts included.
func fleetIdentity(scrapes []map[string]float64) error {
	var in, out float64
	for _, m := range scrapes {
		for _, o := range []string{"accepted", "cache_hit", "store_hit"} {
			in += m[`rapidsd_submissions_total{outcome="`+o+`"}`]
		}
		for _, d := range []string{"reborn", "requeued"} {
			in += m[`rapidsd_journal_replayed_jobs_total{disposition="`+d+`"}`]
		}
		for _, st := range []string{server.StateDone, server.StateCanceled, server.StateFailed} {
			out += m[`rapidsd_jobs_completed_total{state="`+st+`"}`]
		}
		out += m["rapidsd_queue_depth"] + m["rapidsd_workers_busy"]
	}
	if in != out {
		return fmt.Errorf("fleet metrics do not reconcile: submissions+replayed = %.0f, completions+in-flight = %.0f", in, out)
	}
	return nil
}
