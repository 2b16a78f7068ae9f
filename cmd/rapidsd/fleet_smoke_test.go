package main

// TestFleetSmoke is `make fleet-smoke`: the multi-replica acceptance
// test with real binaries (DESIGN.md §5c). Two rapidsd processes share
// a result-store directory and route jobs over a consistent-hash ring
// (-peers/-self); harness.RunFleet submits a seed grid to both, one
// replica is SIGKILLed mid-batch and restarted on the same port,
// journal, and store, and the fleet must still deliver every result
// byte-identical to an uninterrupted single-process facade run — with
// the summed metrics reconciliation identity intact across the crash.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/harness"
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

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	fleetDone := make(chan struct{})
	var rep *harness.FleetReport
	var fleetErr error
	go func() {
		defer close(fleetDone)
		rep, fleetErr = harness.RunFleet(ctx, harness.FleetConfig{
			URLs:            urls,
			Requests:        reqs,
			Concurrency:     8,
			PollInterval:    10 * time.Millisecond,
			RideOutRestarts: true,
		})
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
	if fleetErr != nil {
		t.Fatalf("fleet: %v", fleetErr)
	}

	// The fleet invariants — every submission done, byte-identical
	// results across replicas, duplicates served without re-runs, and
	// the summed reconciliation identity — must hold across the crash.
	if err := rep.Check(); err != nil {
		t.Fatalf("fleet check: %v", err)
	}

	// And every result equals the single-replica oracle: an
	// uninterrupted in-process facade run of the same spec.
	rodeOut := 0
	for i, fr := range rep.Rows {
		want := uninterruptedRun(t, reqs[i])
		for k, row := range fr.Rows {
			rodeOut += row.RetriedTransport
			got, w := *row.Result, *want
			got.Elapsed, w.Elapsed = 0, 0
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("%s seed %d via replica %d: result diverged from the single-replica oracle:\nwant %+v\ngot  %+v",
					fr.Name, reqs[i].Place.Seed, k, w, got)
			}
		}
	}
	t.Logf("fleet survived SIGKILL: %d specs x %d replicas, %d retries ridden out, store at %s",
		len(reqs), len(urls), rodeOut, storeDir)

	// Dedupe, as the clients observed it: exactly one submission per spec
	// ran the optimizer and every other one was a cache or store hit
	// (Check already requires the hit for each duplicate). The scraped
	// hit counters cannot show this: the SIGKILLed replica restarts with
	// a zeroed registry, so hits it served before the crash drop out of
	// the summed scrapes.
	cached := 0
	for _, fr := range rep.Rows {
		for _, row := range fr.Rows {
			if row.Cached {
				cached++
			}
		}
	}
	if dups := len(reqs) * (len(urls) - 1); cached != dups {
		t.Fatalf("dedupe: %d submissions served as hits, want exactly the %d duplicates", cached, dups)
	}
}
