package main

// TestKillRestartRecovery is the crash-safety acceptance test
// (DESIGN.md §5a): a real rapidsd with a journal is SIGKILLed in the
// middle of a 20-job batch, restarted on the same journal and port, and
// must finish every accepted job with results bit-identical to
// uninterrupted in-process runs. The clients polling the jobs ride out
// the dead port (rideOut) and pick the jobs up on the new daemon.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/rapids"
	"repro/rapids/server"
)

// kill sends SIGKILL — no drain, no journal close, the crash the
// journal exists for — and reaps the process.
func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait()
}

// jobCounts polls GET /v1/jobs for (accepted, done) totals; zeros on
// transport errors so callers can poll across a restart window.
func jobCounts(base string) (total, done int) {
	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	var list []server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return 0, 0
	}
	for _, st := range list {
		if st.State == server.StateDone {
			done++
		}
	}
	return len(list), done
}

// uninterruptedRun is the oracle: the same request through the facade
// in-process, never crashed, never restarted.
func uninterruptedRun(t *testing.T, req server.JobRequest) *rapids.Result {
	t.Helper()
	c, err := rapids.Generate(req.Generate)
	if err != nil {
		t.Fatal(err)
	}
	c.Place(rapids.PlaceSeed(req.Place.Seed), rapids.PlaceMoves(req.Place.Moves))
	res, err := c.Optimize(context.Background(), req.Options.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// rideOutPause is the fixed sleep between rideOut's tries.
const rideOutPause = 10 * time.Millisecond

// rideOut sends one request until a live server answers it. Two
// failures are a restart in progress and are retried after
// rideOutPause, each counted into retries: a transport error (the
// daemon is down) and a 502 peer_unreachable (a live replica proxying
// to an owner that is down). Any other answer is returned as is.
func rideOut(ctx context.Context, retries *atomic.Int64, method, url string, body []byte) (int, []byte, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			var b []byte
			b, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			var eb server.ErrorBody
			if err == nil && !(resp.StatusCode == http.StatusBadGateway &&
				json.Unmarshal(b, &eb) == nil && eb.Code == server.CodePeerUnreachable) {
				return resp.StatusCode, b, nil
			}
		}
		retries.Add(1)
		select {
		case <-ctx.Done():
			return 0, nil, fmt.Errorf("%s %s: %w", method, url, ctx.Err())
		case <-time.After(rideOutPause):
		}
	}
}

// pollTerminal polls job id on base through rideOut until it leaves
// the queued and running states.
func pollTerminal(ctx context.Context, retries *atomic.Int64, base, id string) (server.JobStatus, error) {
	for {
		code, b, err := rideOut(ctx, retries, http.MethodGet, base+"/v1/jobs/"+id, nil)
		if err != nil {
			return server.JobStatus{}, err
		}
		if code != http.StatusOK {
			return server.JobStatus{}, fmt.Errorf("status %s: %d: %s", id, code, bytes.TrimSpace(b))
		}
		var st server.JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			return st, err
		}
		if st.State != server.StateQueued && st.State != server.StateRunning {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(rideOutPause):
		}
	}
}

func TestKillRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("boots, kills, and restarts a daemon over a 20-job batch")
	}
	// A fixed port, so the clients find the restarted daemon where the
	// killed one was.
	jpath := filepath.Join(t.TempDir(), "jobs.journal")
	args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", freePort(t)),
		"-journal", jpath, "-queue", "64", "-opt-workers", "1", "-drain-timeout", "30s"}
	d1 := startDaemon(t, args...)

	// 20 distinct jobs (seed grid over three benchmarks): distinct
	// cache keys, so every completion is a real run.
	verify := 4
	var reqs []server.JobRequest
	for _, bench := range []string{"c432", "c499", "alu2"} {
		for seed := int64(1); seed <= 7 && len(reqs) < 20; seed++ {
			reqs = append(reqs, server.JobRequest{
				Generate: bench,
				Place:    &server.PlaceSpec{Seed: seed, Moves: 5},
				Options:  rapids.Spec{Iters: 1, Workers: 1, VerifyRounds: &verify},
			})
		}
	}
	if len(reqs) != 20 {
		t.Fatalf("built %d requests", len(reqs))
	}
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		st, code := d1.post(t, req)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: want 202, got %d", i, code)
		}
		ids[i] = st.ID
	}

	// SIGKILL once the whole batch is journaled and some — but far from
	// all — jobs completed: the crash lands mid-drain with a mix of
	// done, running, and queued jobs.
	killDeadline := time.Now().Add(120 * time.Second)
	for {
		total, done := jobCounts(d1.base)
		if total >= len(reqs) && done >= 2 {
			break
		}
		if time.Now().After(killDeadline) {
			t.Fatalf("kill point never reached: %d accepted, %d done", total, done)
		}
		time.Sleep(20 * time.Millisecond)
	}
	d1.kill(t)

	// Poll every job from the moment the port goes dead: the clients
	// ride out the restart window and read every terminal state from
	// the new daemon.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	var retries atomic.Int64
	finals := make([]server.JobStatus, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			finals[i], errs[i] = pollTerminal(ctx, &retries, d1.base, id)
		}()
	}

	// Restart on the same journal and port.
	d2 := startDaemon(t, args...)
	if d2.base != d1.base {
		t.Fatalf("restarted daemon bound %s, want %s", d2.base, d1.base)
	}

	// The restarted daemon is ready (journal writable, queue below the
	// high-water mark) even while it chews through recovered jobs.
	if resp, err := http.Get(d2.base + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("restarted daemon not ready: %d", resp.StatusCode)
		}
	}

	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatalf("polling across the restart: %v", err)
	}

	// Every job completed, and every result is bit-identical to an
	// uninterrupted in-process run — recovery re-executes
	// deterministically, it does not approximate.
	recovered := 0
	for i, st := range finals {
		if st.State != server.StateDone || st.Result == nil {
			t.Fatalf("job %d (%s seed %d) lost to the crash: %+v",
				i, reqs[i].Generate, reqs[i].Place.Seed, st)
		}
		if st.Recovered {
			recovered++
		}
		want := uninterruptedRun(t, reqs[i])
		got := *st.Result
		w := *want
		got.Elapsed, w.Elapsed = 0, 0
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("job %d (%s seed %d): result diverged across the crash:\nwant %+v\ngot  %+v",
				i, reqs[i].Generate, reqs[i].Place.Seed, w, got)
		}
	}
	if recovered == 0 {
		t.Fatal("no job was journal-recovered; the kill landed too late to test anything")
	}
	rodeOut := retries.Load()
	if rodeOut == 0 {
		t.Fatal("no transport retries recorded; the clients never noticed the restart")
	}
	t.Logf("recovered %d/%d jobs across SIGKILL (%d transport retries ridden out)",
		recovered, len(finals), rodeOut)

	// And the second incarnation still drains cleanly.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d2.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("restarted rapidsd exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		d2.cmd.Process.Kill()
		t.Fatal("restarted rapidsd did not drain within 60s of SIGTERM")
	}
}
