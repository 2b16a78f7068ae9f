package server

// Fault-injection tests for the crash-safety layer (DESIGN.md §5a):
// panic isolation, retry-to-success, job timeouts, journal write
// failures, in-process journal recovery, and cache-corruption
// detection — all FaultHooks-driven, all meant to run under -race
// (make chaos).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/rapids"
	"repro/rapids/server/journal"
	"repro/rapids/server/store"
)

// deleteJob issues DELETE /v1/jobs/{id} and decodes the error body on
// non-2xx.
func deleteJob(t *testing.T, url, id string) (int, ErrorBody) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb ErrorBody
	if resp.StatusCode >= 400 {
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("DELETE %s: undecodable error body: %v", id, err)
		}
	}
	return resp.StatusCode, eb
}

// TestWorkerPanicIsolation: a panic injected into one job's attempt
// fails exactly that job with a structured error; sibling jobs and
// later submissions keep completing on the surviving workers.
func TestWorkerPanicIsolation(t *testing.T) {
	hooks := &FaultHooks{
		BeforeAttempt: func(ctx context.Context, jobID string, attempt int) {
			if strings.HasPrefix(jobID, "j2-") {
				panic("injected worker crash")
			}
		},
	}
	_, ts := startServer(t, Config{Workers: 2, MaxRetries: -1, Hooks: hooks})

	reqs := []JobRequest{quickRequest("c432"), quickRequest("c499"), quickRequest("alu2")}
	var ids []string
	for i, req := range reqs {
		st, code := submit(t, ts.URL, req)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		ids = append(ids, st.ID)
	}

	for i, id := range ids {
		final := waitTerminal(t, ts.URL, id)
		if i == 1 {
			if final.State != StateFailed {
				t.Fatalf("panicked job ended %s, want failed: %+v", final.State, final)
			}
			if !strings.Contains(final.Error, "worker panic: injected worker crash") {
				t.Fatalf("panic not surfaced in the error: %q", final.Error)
			}
			if final.Attempts != 1 {
				t.Fatalf("retries are disabled; attempts = %d", final.Attempts)
			}
			continue
		}
		if final.State != StateDone {
			t.Fatalf("sibling job %s caught the panic: %+v", id, final)
		}
	}

	// The pool survived: a fresh job still completes.
	st, _ := submit(t, ts.URL, quickRequest("c1355"))
	if final := waitTerminal(t, ts.URL, st.ID); final.State != StateDone {
		t.Fatalf("worker pool did not survive the panic: %+v", final)
	}
}

// TestTransientPanicRetries: a panic on the first attempt only is a
// transient failure — the job retries, completes, and its result is
// identical to an undisturbed run.
func TestTransientPanicRetries(t *testing.T) {
	hooks := &FaultHooks{
		BeforeAttempt: func(ctx context.Context, jobID string, attempt int) {
			if attempt == 1 {
				panic("first attempt always crashes")
			}
		},
	}
	_, ts := startServer(t, Config{RetryBackoff: time.Millisecond, Hooks: hooks})

	req := quickRequest("c432")
	st, code := submit(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("retried job did not complete: %+v", final)
	}
	if final.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (crash + retry)", final.Attempts)
	}
	if want := directRun(t, req); !sameResult(want, final.Result) {
		t.Fatalf("retried result diverged from direct run:\ndirect %+v\nserver %+v", want, final.Result)
	}
}

// TestJobTimeoutRetriesThenFails: a stuck run (the hook blocks on the
// attempt context, which carries Config.JobTimeout) times out, retries,
// and — still stuck — fails for good with the deadline in the error.
func TestJobTimeoutRetriesThenFails(t *testing.T) {
	hooks := &FaultHooks{
		BeforeAttempt: func(ctx context.Context, jobID string, attempt int) {
			<-ctx.Done() // stuck until the job deadline fires
		},
	}
	_, ts := startServer(t, Config{
		JobTimeout: 30 * time.Millisecond, MaxRetries: 1,
		RetryBackoff: time.Millisecond, Hooks: hooks,
	})

	st, code := submit(t, ts.URL, quickRequest("c432"))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != StateFailed {
		t.Fatalf("stuck job ended %s, want failed: %+v", final.State, final)
	}
	if final.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (timeout + retry)", final.Attempts)
	}
	if !strings.Contains(final.Error, "deadline exceeded") {
		t.Fatalf("timeout not surfaced in the error: %q", final.Error)
	}

	// The retry counter reached healthz.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Retries int64 `json:"retries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Retries != 1 {
		t.Fatalf("healthz retries = %d, want 1", h.Retries)
	}
}

// TestRequestTimeoutMS: options.timeout_ms bounds the attempt the same
// way Config.JobTimeout does.
func TestRequestTimeoutMS(t *testing.T) {
	hooks := &FaultHooks{
		BeforeAttempt: func(ctx context.Context, jobID string, attempt int) {
			<-ctx.Done()
		},
	}
	_, ts := startServer(t, Config{MaxRetries: -1, Hooks: hooks})

	req := quickRequest("c432")
	req.Options.TimeoutMS = 30
	st, code := submit(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "deadline exceeded") {
		t.Fatalf("timeout_ms did not bound the run: %+v", final)
	}
}

// TestJournalWriteErrorTurnsUnready: while appends fail, submissions
// are rejected (an unjournaled accepted job would be lost by a crash)
// and /readyz reports 503; readiness and submissions self-heal when
// appends recover.
func TestJournalWriteErrorTurnsUnready(t *testing.T) {
	var failing atomic.Bool
	hooks := &FaultHooks{
		JournalAppend: func(e journal.Entry) error {
			if failing.Load() {
				return fmt.Errorf("disk full (injected)")
			}
			return nil
		},
	}
	s, ts := startServer(t, Config{Journal: journal.NewMem(), Hooks: hooks})

	ready := func() (int, []string) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Ready   bool     `json:"ready"`
			Reasons []string `json:"reasons"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body.Reasons
	}

	if code, _ := ready(); code != http.StatusOK {
		t.Fatalf("fresh server not ready: %d", code)
	}

	failing.Store(true)
	if _, code := submit(t, ts.URL, quickRequest("c432")); code != http.StatusServiceUnavailable {
		t.Fatalf("submit with a failing journal: want 503, got %d", code)
	}
	code, reasons := ready()
	if code != http.StatusServiceUnavailable || len(reasons) == 0 || !strings.Contains(reasons[0], "disk full") {
		t.Fatalf("readyz while journal fails: %d %v", code, reasons)
	}
	// The failed append is on the books: one append failure, one
	// journal-rejected submission.
	if got := s.metrics.journalAppendFailures.Value(); got != 1 {
		t.Fatalf("journal_append_failures_total = %d after injected failure, want 1", got)
	}
	if got := s.metrics.submissions.With(outcomeJournalError).Value(); got != 1 {
		t.Fatalf("submissions{rejected_journal} = %d, want 1", got)
	}

	failing.Store(false)
	st, code2 := submit(t, ts.URL, quickRequest("c432"))
	if code2 != http.StatusAccepted {
		t.Fatalf("submit after journal healed: %d", code2)
	}
	if code, reasons := ready(); code != http.StatusOK {
		t.Fatalf("readiness did not self-heal: %d %v", code, reasons)
	}
	waitTerminal(t, ts.URL, st.ID)
	if got := s.metrics.journalAppends.Value(); got == 0 {
		t.Fatal("journal_appends_total stayed 0 after the journal healed")
	}
}

// TestRecoveryRequeuesAcceptedJobs: jobs journaled accepted but never
// run (the first incarnation's workers never started — a stand-in for
// a crash) are re-enqueued by the next incarnation under their
// original ids, run to completion, and match the direct oracle. A
// cancel intent journaled before the crash is honored after it.
func TestRecoveryRequeuesAcceptedJobs(t *testing.T) {
	mem := journal.NewMem()
	s1, err := newServer(Config{Journal: mem}) // workers never started
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)

	reqs := []JobRequest{quickRequest("c432"), quickRequest("c499"), quickRequest("alu2")}
	var ids []string
	for _, req := range reqs {
		st, code := submit(t, ts1.URL, req)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d", code)
		}
		ids = append(ids, st.ID)
	}
	// Cancel the last one; the intent must survive the "crash".
	if code, _ := deleteJob(t, ts1.URL, ids[2]); code != http.StatusAccepted {
		t.Fatalf("DELETE on queued job: %d", code)
	}
	ts1.Close() // the process dies with jobs queued

	s2, ts2 := startServer(t, Config{Journal: mem, Workers: 2})
	for i, id := range ids {
		final := waitTerminal(t, ts2.URL, id)
		if !final.Recovered {
			t.Fatalf("job %s not marked recovered: %+v", id, final)
		}
		if i == 2 {
			if final.State != StateCanceled {
				t.Fatalf("pre-crash cancel intent lost: %+v", final)
			}
			continue
		}
		if final.State != StateDone {
			t.Fatalf("recovered job %s ended %s: %+v", id, final.State, final)
		}
		if want := directRun(t, reqs[i]); !sameResult(want, final.Result) {
			t.Fatalf("recovered result diverged from direct run:\ndirect %+v\nserver %+v", want, final.Result)
		}
	}
	// New ids must not collide with recovered ones.
	st, code := submit(t, ts2.URL, quickRequest("c1355"))
	if code != http.StatusAccepted {
		t.Fatalf("post-recovery submit: %d", code)
	}
	for _, id := range ids {
		if st.ID == id {
			t.Fatalf("id collision after recovery: %s", st.ID)
		}
	}
	waitTerminal(t, ts2.URL, st.ID)
	_ = s2
}

// TestRecoveryRebirthsTerminalJobs: a job that finished before the
// restart is reborn terminal — same id, same result, no re-run — and
// its result re-seeds the cache.
func TestRecoveryRebirthsTerminalJobs(t *testing.T) {
	mem := journal.NewMem()
	req := quickRequest("c432")

	var id string
	var first *rapids.Result
	func() {
		s1, err := New(Config{Journal: mem})
		if err != nil {
			t.Fatal(err)
		}
		ts1 := httptest.NewServer(s1)
		defer ts1.Close()
		st, code := submit(t, ts1.URL, req)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d", code)
		}
		final := waitTerminal(t, ts1.URL, st.ID)
		if final.State != StateDone {
			t.Fatalf("first incarnation: %+v", final)
		}
		id, first = st.ID, final.Result
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s1.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()

	_, ts2 := startServer(t, Config{Journal: mem})
	reborn := getStatus(t, ts2.URL, id)
	if reborn.State != StateDone || !reborn.Recovered || reborn.Cached {
		t.Fatalf("reborn job: %+v", reborn)
	}
	if !sameResult(first, reborn.Result) {
		t.Fatalf("reborn result differs:\nbefore %+v\nafter  %+v", first, reborn.Result)
	}
	// The cache was re-seeded: an identical submission is a hit.
	st, code := submit(t, ts2.URL, req)
	if code != http.StatusOK || !st.Cached {
		t.Fatalf("cache not re-seeded by recovery: code %d, %+v", code, st)
	}
	// Its SSE stream replays a done event even though nothing ran.
	resp, err := http.Get(ts2.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body, nil)
	if len(events) != 2 || events[0].name != "done" || events[1].name != "end" {
		t.Fatalf("reborn job stream: %+v", events)
	}
}

// TestCacheCorruptionDetected: a corrupted local-tier entry fails the
// integrity checksum on lookup and is dropped. With no shared store the
// request re-runs to the correct result instead of serving garbage;
// with a healthy shared store in front of which the corruption happened,
// it is served as a store_hit from the pristine copy, not re-run.
func TestCacheCorruptionDetected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shared store.Store
	}{
		{"local-only", nil},
		{"shared-store", store.NewMem(64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var corruptOnce atomic.Bool
			corruptOnce.Store(true)
			hooks := &FaultHooks{
				CorruptResult: func(key string) bool {
					return corruptOnce.CompareAndSwap(true, false)
				},
			}
			_, ts := startServer(t, Config{Hooks: hooks, Store: tc.shared})

			req := quickRequest("c432")
			st, _ := submit(t, ts.URL, req)
			first := waitTerminal(t, ts.URL, st.ID)
			if first.State != StateDone {
				t.Fatalf("first run: %+v", first)
			}

			st2, code := submit(t, ts.URL, req)
			if m := scrape(t, ts.URL); m["rapidsd_cache_corruptions_total"] != 1 {
				t.Fatalf("cache_corruptions_total = %v, want 1", m["rapidsd_cache_corruptions_total"])
			}
			if tc.shared == nil {
				// The cached copy is corrupted: the resubmission must
				// MISS (202, fresh run), not serve the corrupted entry.
				if code != http.StatusAccepted || st2.Cached {
					t.Fatalf("corrupted entry was served: code %d, %+v", code, st2)
				}
				second := waitTerminal(t, ts.URL, st2.ID)
				if second.State != StateDone || !sameResult(first.Result, second.Result) {
					t.Fatalf("re-run after corruption diverged: %+v", second)
				}
			} else {
				// The shared store got the pristine entry: served from
				// there, identical to the run, and promoted locally.
				if code != http.StatusOK || !st2.Cached || !sameResult(first.Result, st2.Result) {
					t.Fatalf("pristine store copy not served: code %d, %+v", code, st2)
				}
				m := scrape(t, ts.URL)
				if m[`rapidsd_submissions_total{outcome="store_hit"}`] != 1 || m[`rapidsd_submissions_total{outcome="accepted"}`] != 1 {
					t.Fatalf("want 1 accepted + 1 store_hit, got %v accepted, %v store_hit",
						m[`rapidsd_submissions_total{outcome="accepted"}`], m[`rapidsd_submissions_total{outcome="store_hit"}`])
				}
			}

			// The healthy entry now sits in the local tier: next time is
			// a hit.
			st3, code := submit(t, ts.URL, req)
			if code != http.StatusOK || !st3.Cached {
				t.Fatalf("healthy entry missed: code %d, %+v", code, st3)
			}
			if m := scrape(t, ts.URL); m[`rapidsd_submissions_total{outcome="cache_hit"}`] != 1 {
				t.Fatalf("cache_hit = %v, want 1", m[`rapidsd_submissions_total{outcome="cache_hit"}`])
			}
		})
	}
}

// TestDeleteStateTable walks DELETE /v1/jobs/{id} across every job
// state: queued and running cancel with 202; done, canceled, and
// failed answer 409 Conflict with the typed error body.
func TestDeleteStateTable(t *testing.T) {
	gate := make(chan struct{})
	var blocking atomic.Bool
	blocking.Store(true)
	hooks := &FaultHooks{
		BeforeAttempt: func(ctx context.Context, jobID string, attempt int) {
			if blocking.Load() {
				select {
				case <-gate:
				case <-ctx.Done():
				}
			}
		},
	}
	_, ts := startServer(t, Config{Workers: 1, MaxRetries: -1, Hooks: hooks})

	// One job parked running in the hook, one stuck behind it in queue.
	running, _ := submit(t, ts.URL, quickRequest("c432"))
	queued, _ := submit(t, ts.URL, quickRequest("c499"))

	if code, _ := deleteJob(t, ts.URL, queued.ID); code != http.StatusAccepted {
		t.Fatalf("DELETE queued: want 202, got %d", code)
	}
	if code, _ := deleteJob(t, ts.URL, running.ID); code != http.StatusAccepted {
		t.Fatalf("DELETE running: want 202, got %d", code)
	}
	if st := waitTerminal(t, ts.URL, running.ID); st.State != StateCanceled {
		t.Fatalf("running job after DELETE: %+v", st)
	}
	if st := waitTerminal(t, ts.URL, queued.ID); st.State != StateCanceled {
		t.Fatalf("queued job after DELETE: %+v", st)
	}

	// Terminal jobs: done, failed, canceled — each answers 409.
	blocking.Store(false)
	close(gate)
	done, _ := submit(t, ts.URL, quickRequest("alu2"))
	waitTerminal(t, ts.URL, done.ID)
	failed, _ := submit(t, ts.URL, JobRequest{Generate: "nonesuch", Options: quickSpec()})
	waitTerminal(t, ts.URL, failed.ID)

	for _, tc := range []struct {
		id    string
		state string
	}{
		{done.ID, StateDone},
		{failed.ID, StateFailed},
		{running.ID, StateCanceled},
	} {
		code, eb := deleteJob(t, ts.URL, tc.id)
		if code != http.StatusConflict {
			t.Fatalf("DELETE %s job: want 409, got %d", tc.state, code)
		}
		if eb.Code != CodeJobAlreadyTerminal || eb.State != tc.state || eb.Error == "" {
			t.Fatalf("DELETE %s job body: %+v", tc.state, eb)
		}
	}
	if code, _ := deleteJob(t, ts.URL, "nope"); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: want 404, got %d", code)
	}
}

// TestReadyz: readiness turns 503 at the queue high-water mark and
// while draining, 200 otherwise.
func TestReadyz(t *testing.T) {
	s, err := newServer(Config{Workers: 1, QueueCap: 2}) // workers parked
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	ready := func() (int, []string) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Reasons []string `json:"reasons"`
		}
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body.Reasons
	}

	if code, _ := ready(); code != http.StatusOK {
		t.Fatalf("fresh server: %d", code)
	}
	var ids []string
	for i := 0; i < 2; i++ {
		st, _ := submit(t, ts.URL, quickRequest("c432"))
		ids = append(ids, st.ID)
	}
	code, reasons := ready()
	if code != http.StatusServiceUnavailable || len(reasons) != 1 || !strings.Contains(reasons[0], "high-water") {
		t.Fatalf("full queue: %d %v", code, reasons)
	}

	s.start()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if code, _ := ready(); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readiness never recovered after the queue drained")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, id := range ids {
		waitTerminal(t, ts.URL, id)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	code, reasons = ready()
	if code != http.StatusServiceUnavailable || len(reasons) != 1 || reasons[0] != "draining" {
		t.Fatalf("draining server: %d %v", code, reasons)
	}
}

// TestChaosSweepLosesNothing: a batch of distinct jobs under injected
// first-attempt panics and a journal — every accepted job reaches a
// terminal state, every completed result matches the deterministic
// oracle, and the process returns to its goroutine baseline.
func TestChaosSweepLosesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes a dozen circuits")
	}
	before := runtime.NumGoroutine()

	// Crash the first attempt of every third distinct job. Selecting by
	// arrival order rather than hashing the (random) job id guarantees a
	// fixed number of injected crashes per sweep — an id-hash selector
	// can pick zero jobs and make the whole test vacuous.
	var (
		crashMu sync.Mutex
		crashed = map[string]bool{}
		seen    int
	)
	hooks := &FaultHooks{
		BeforeAttempt: func(ctx context.Context, jobID string, attempt int) {
			crashMu.Lock()
			if _, ok := crashed[jobID]; !ok {
				seen++
				crashed[jobID] = seen%3 == 0
			}
			crash := crashed[jobID] && attempt == 1
			crashMu.Unlock()
			if crash {
				panic("chaos: injected crash")
			}
		},
	}
	mem := journal.NewMem()

	func() {
		s, err := New(Config{
			Workers: 4, QueueCap: 32, RetryBackoff: time.Millisecond,
			Journal: mem, Hooks: hooks,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		defer ts.Close()

		var reqs []JobRequest
		for _, bench := range []string{"c432", "c499", "alu2"} {
			for seed := int64(1); seed <= 4; seed++ {
				req := quickRequest(bench)
				req.Place.Seed = seed
				reqs = append(reqs, req)
			}
		}
		var (
			mu  sync.Mutex
			ids = make(map[string]JobRequest)
			wg  sync.WaitGroup
		)
		for _, req := range reqs {
			wg.Add(1)
			go func(req JobRequest) {
				defer wg.Done()
				st, code := submit(t, ts.URL, req)
				if code != http.StatusAccepted && code != http.StatusOK {
					t.Errorf("submit rejected: %d", code)
					return
				}
				mu.Lock()
				ids[st.ID] = req
				mu.Unlock()
			}(req)
		}
		wg.Wait()
		if len(ids) != len(reqs) {
			t.Fatalf("accepted %d of %d jobs", len(ids), len(reqs))
		}

		retried := 0
		for id, req := range ids {
			final := waitTerminal(t, ts.URL, id)
			if final.State != StateDone {
				t.Fatalf("job %s lost to chaos: %+v", id, final)
			}
			if final.Attempts > 1 {
				retried++
			}
			if !final.Cached {
				if want := directRun(t, req); !sameResult(want, final.Result) {
					t.Fatalf("chaos broke determinism for %s:\ndirect %+v\nserver %+v", id, want, final.Result)
				}
			}
		}
		if retried == 0 {
			t.Fatal("chaos sweep injected no crashes; the test is vacuous")
		}

		// The journal holds a terminal entry for every accepted job.
		terminal := map[string]bool{}
		accepted := 0
		for _, e := range mem.Entries() {
			switch {
			case e.Op == journal.OpAccepted:
				accepted++
			case e.Op.Terminal():
				terminal[e.JobID] = true
			}
		}
		if accepted != len(reqs) || len(terminal) != len(reqs) {
			t.Fatalf("journal lost jobs: %d accepted, %d terminal, want %d", accepted, len(terminal), len(reqs))
		}

		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCacheConcurrentAccess hammers the local tier's bounded Mem with
// concurrent inserts, reads, and corrupt overwrites (dropped on the next
// read) across overlapping keys — the eviction path must be race-clean
// (run under -race), never exceed its cap, and never serve a corrupt
// entry.
func TestCacheConcurrentAccess(t *testing.T) {
	m := newServerMetrics()
	c, _ := newTiers(Config{CacheCap: 8}, m)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%16)
				switch i % 3 {
				case 0:
					c.Put(store.NewEntry(key, key, i, json.RawMessage(`{"FinalDelayNS":1}`)))
				case 1:
					if e, ok, _ := c.Get(key); ok && !e.Intact() {
						t.Errorf("entry %s corrupted", key)
					}
				default:
					if i%30 == 2 {
						bad := store.NewEntry(key, key, i, json.RawMessage(`{"FinalDelayNS":1}`))
						bad.Result = json.RawMessage(`{"FinalDelayNS":2}`)
						c.Put(bad)
					}
					c.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 8 {
		t.Fatalf("cache over cap: %d", n)
	}
	if m.cacheEvictions.Value() == 0 {
		t.Fatal("16 keys through a cap of 8 evicted nothing")
	}
}
