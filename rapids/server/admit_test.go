package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/rapids"
	"repro/rapids/server/journal"
)

// Gate counts of the circuits the admission tests use: the two small
// ones fit within the large one's mark together.
const (
	c432Gates = 291
	alu2Gates = 516
	alu4Gates = 1004
)

// holds is a BeforeAttempt hook that parks every attempt, once admitted
// and placed, until the test lets its job go, lets every job go, or the
// attempt's context ends. An attempt in the hook holds its admitted
// gates, so the tests script the admission line exactly.
type holds struct {
	entered chan string // job ids, in the order their attempts began; sized past any test's job count
	stop    chan struct{}
	mu      sync.Mutex
	release map[string]chan struct{}
}

func newHolds() *holds {
	return &holds{entered: make(chan string, 64), stop: make(chan struct{}), release: map[string]chan struct{}{}}
}

// startHeld starts a server whose attempts park in a holds hook. Every
// parked attempt is let go before the server's cleanup drains it, so a
// failed test does not wait out the drain deadline.
func startHeld(t *testing.T, cfg Config) (*Server, *httptest.Server, *holds) {
	h := newHolds()
	cfg.Hooks = &FaultHooks{BeforeAttempt: h.hook}
	s, ts := startServer(t, cfg)
	t.Cleanup(func() { close(h.stop) })
	return s, ts, h
}

func (h *holds) gate(id string) chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch, ok := h.release[id]
	if !ok {
		ch = make(chan struct{})
		h.release[id] = ch
	}
	return ch
}

func (h *holds) hook(ctx context.Context, id string, attempt int) {
	h.entered <- id
	select {
	case <-h.gate(id):
	case <-h.stop:
	case <-ctx.Done():
	}
}

// let releases job id's attempt.
func (h *holds) let(id string) { close(h.gate(id)) }

// next returns the id of the next attempt to begin.
func (h *holds) next(t *testing.T) string {
	t.Helper()
	select {
	case id := <-h.entered:
		return id
	case <-time.After(60 * time.Second):
		t.Fatal("no attempt began within 60s")
		return ""
	}
}

// admissionRequest is a cheap job on circuit bench; distinct seeds give
// distinct cache keys.
func admissionRequest(bench string, seed int64) JobRequest {
	req := quickRequest(bench)
	req.Place.Seed = seed
	return req
}

// submitOK submits req and fails the test unless it was accepted for a
// run.
func submitOK(t *testing.T, url string, req JobRequest) string {
	t.Helper()
	st, code := submit(t, url, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit %s: HTTP %d", req.Generate, code)
	}
	return st.ID
}

// waitLine polls until n jobs wait for admission. An attempt that
// begins first means a job was admitted that should have waited.
func waitLine(t *testing.T, s *Server, h *holds, n int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, _, waiting := s.admit.state(); waiting == n {
			return
		}
		select {
		case id := <-h.entered:
			t.Fatalf("job %s began its attempt while %d jobs should be waiting for admission", id, n)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission line never reached %d jobs", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// raiseMark runs one alu4 job to completion, so the admission mark is
// alu4's gate count.
func raiseMark(t *testing.T, s *Server, url string, h *holds) {
	t.Helper()
	id := submitOK(t, url, admissionRequest("alu4", 1))
	if got := h.next(t); got != id {
		t.Fatalf("attempt of %s began, want %s", got, id)
	}
	h.let(id)
	if st := waitTerminal(t, url, id); st.State != StateDone || st.Gates != alu4Gates {
		t.Fatalf("mark job: %+v", st)
	}
	if mark, gates, _ := s.admit.state(); mark != alu4Gates || gates != 0 {
		t.Fatalf("after the alu4 run: mark %d, admitted gates %d", mark, gates)
	}
}

// TestAdmissionRunsFittingJobsConcurrently: two jobs whose gates fit
// within the mark together run at the same time.
func TestAdmissionRunsFittingJobsConcurrently(t *testing.T) {
	s, ts, h := startHeld(t, Config{Workers: 2})
	raiseMark(t, s, ts.URL, h)

	a := submitOK(t, ts.URL, admissionRequest("alu2", 2))
	b := submitOK(t, ts.URL, admissionRequest("c432", 2))
	// Both attempts begin while neither is let go.
	running := map[string]bool{h.next(t): true, h.next(t): true}
	if !running[a] || !running[b] {
		t.Fatalf("running %v, want %s and %s", running, a, b)
	}
	if _, gates, waiting := s.admit.state(); gates != alu2Gates+c432Gates || waiting != 0 {
		t.Fatalf("admitted gates %d and %d waiting, want %d and 0", gates, waiting, alu2Gates+c432Gates)
	}
	h.let(a)
	h.let(b)
	for _, id := range []string{a, b} {
		if st := waitTerminal(t, ts.URL, id); st.State != StateDone || st.AdmissionWait != 0 {
			t.Fatalf("job %s: %+v", id, st)
		}
	}
}

// TestAdmissionLargerJobRunsAlone: a circuit larger than every earlier
// one waits until no job runs, then raises the mark. Its wait is part of
// its queue time, is scraped, and survives a journal replay.
func TestAdmissionLargerJobRunsAlone(t *testing.T) {
	mem := journal.NewMem()
	s, ts, h := startHeld(t, Config{Workers: 2, Journal: mem})

	small := submitOK(t, ts.URL, admissionRequest("c432", 1))
	if got := h.next(t); got != small {
		t.Fatalf("attempt of %s began, want %s", got, small)
	}
	large := submitOK(t, ts.URL, admissionRequest("alu2", 1))
	waitLine(t, s, h, 1)
	// Loaded and waiting: queued, with its gates known.
	if st := getStatus(t, ts.URL, large); st.State != StateQueued || st.Gates != alu2Gates {
		t.Fatalf("waiting job: %+v", st)
	}

	h.let(small)
	if got := h.next(t); got != large {
		t.Fatalf("attempt of %s began, want %s", got, large)
	}
	if mark, gates, _ := s.admit.state(); mark != alu2Gates || gates != alu2Gates {
		t.Fatalf("larger job running: mark %d, admitted gates %d, want %d and %d", mark, gates, alu2Gates, alu2Gates)
	}
	h.let(large)
	st := waitTerminal(t, ts.URL, large)
	if st.State != StateDone || st.AdmissionWait <= 0 || st.AdmissionWait > st.QueuedFor {
		t.Fatalf("larger job: %+v", st)
	}
	m := scrape(t, ts.URL)
	if v := m["rapidsd_job_admission_wait_seconds_count"]; v != 1 {
		t.Fatalf("admission waits observed: %v, want 1", v)
	}
	if v := m["rapidsd_admission_mark_gates"]; v != alu2Gates {
		t.Fatalf("rapidsd_admission_mark_gates %v, want %d", v, alu2Gates)
	}
	reborn, err := newServer(Config{Journal: mem})
	if err != nil {
		t.Fatal(err)
	}
	if j, ok := reborn.jobs.get(large); !ok || j.status().AdmissionWait != st.AdmissionWait {
		t.Fatalf("reborn job lost its admission wait %v", st.AdmissionWait)
	}
}

// TestAdmissionFirstComeFirstServed: a large job at the head of the line
// is not overtaken by a later small job that would fit beside the
// running one.
func TestAdmissionFirstComeFirstServed(t *testing.T) {
	s, ts, h := startHeld(t, Config{Workers: 3})
	raiseMark(t, s, ts.URL, h)

	running := submitOK(t, ts.URL, admissionRequest("alu2", 2))
	if got := h.next(t); got != running {
		t.Fatalf("attempt of %s began, want %s", got, running)
	}
	large := submitOK(t, ts.URL, admissionRequest("alu4", 2)) // alu2 + alu4 exceed the mark
	waitLine(t, s, h, 1)
	small := submitOK(t, ts.URL, admissionRequest("c432", 2)) // alu2 + c432 fit, but it came later
	waitLine(t, s, h, 2)

	h.let(running)
	if got := h.next(t); got != large {
		t.Fatalf("attempt of %s began after the running job, want the head of the line %s", got, large)
	}
	waitLine(t, s, h, 1) // alu4 + c432 exceed the mark
	h.let(large)
	if got := h.next(t); got != small {
		t.Fatalf("attempt of %s began, want %s", got, small)
	}
	h.let(small)
	for _, id := range []string{running, large, small} {
		if st := waitTerminal(t, ts.URL, id); st.State != StateDone {
			t.Fatalf("job %s: %+v", id, st)
		}
	}
}

// TestAdmissionWaitEnds: a DELETE of a waiting job, and a drain whose
// deadline passes with a job waiting, both end the waiting job canceled
// with no result, and leak no goroutine. A drain that meets its deadline
// admits the waiting job in turn and runs it to done.
func TestAdmissionWaitEnds(t *testing.T) {
	// setUp starts a two-worker server with a c432 attempt held and an
	// alu2 job waiting behind it.
	setUp := func(t *testing.T) (s *Server, ts *httptest.Server, h *holds, held, waiting string) {
		h = newHolds()
		s, err := New(Config{Workers: 2, Hooks: &FaultHooks{BeforeAttempt: h.hook}})
		if err != nil {
			t.Fatal(err)
		}
		ts = httptest.NewServer(s)
		held = submitOK(t, ts.URL, admissionRequest("c432", 1))
		if got := h.next(t); got != held {
			t.Fatalf("attempt of %s began, want %s", got, held)
		}
		waiting = submitOK(t, ts.URL, admissionRequest("alu2", 1))
		waitLine(t, s, h, 1)
		return s, ts, h, held, waiting
	}
	canceledWaiting := func(t *testing.T, st JobStatus) {
		t.Helper()
		if st.State != StateCanceled || st.Result != nil || st.Error != "canceled while waiting for admission" || st.Attempts != 1 {
			t.Fatalf("waiting job: %+v", st)
		}
	}

	t.Run("delete", func(t *testing.T) {
		before := runtime.NumGoroutine()
		func() {
			s, ts, h, held, waiting := setUp(t)
			defer ts.Close()
			if code, _ := deleteJob(t, ts.URL, waiting); code != http.StatusAccepted {
				t.Fatalf("DELETE of the waiting job: HTTP %d", code)
			}
			canceledWaiting(t, waitTerminal(t, ts.URL, waiting))
			if _, _, n := s.admit.state(); n != 0 {
				t.Fatalf("%d jobs still in line", n)
			}
			h.let(held)
			if st := waitTerminal(t, ts.URL, held); st.State != StateDone {
				t.Fatalf("held job: %+v", st)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
		}()
		waitGoroutines(t, before)
	})

	t.Run("drain-deadline", func(t *testing.T) {
		before := runtime.NumGoroutine()
		func() {
			s, ts, _, held, waiting := setUp(t)
			defer ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
				t.Fatalf("drain with a held job: want %v, got %v", context.DeadlineExceeded, err)
			}
			canceledWaiting(t, getStatus(t, ts.URL, waiting))
			if st := getStatus(t, ts.URL, held); st.State != StateCanceled || st.Result == nil || !st.Result.Interrupted {
				t.Fatalf("held job: %+v", st)
			}
		}()
		waitGoroutines(t, before)
	})

	t.Run("drain", func(t *testing.T) {
		s, ts, h, held, waiting := setUp(t)
		defer ts.Close()
		drained := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			drained <- s.Shutdown(ctx)
		}()
		h.let(held)
		if got := h.next(t); got != waiting {
			t.Fatalf("attempt of %s began, want %s", got, waiting)
		}
		h.let(waiting)
		if err := <-drained; err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{held, waiting} {
			if st := getStatus(t, ts.URL, id); st.State != StateDone {
				t.Fatalf("job %s: %+v", id, st)
			}
		}
	})
}

// waitGoroutines fails unless the goroutine count falls back to before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
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
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentResultsMatchSerial: two clients submitting the service
// circuits to a default-config server, one job per core, get every
// Result byte for byte as a one-worker server computes it, Elapsed
// aside.
func TestConcurrentResultsMatchSerial(t *testing.T) {
	circuits := []string{"alu2", "alu4", "c432", "c499", "c1355", "c1908", "c2670", "c3540", "i8", "k2", "x3", "s5378"}
	if testing.Short() {
		circuits = []string{"alu2", "alu4", "c432", "c499"}
	}
	verify := 8
	request := func(client, i int) JobRequest {
		// Each client walks the list from its own end with its own
		// placement seed: every job is cold, and large and small
		// circuits overlap.
		bench := circuits[i]
		if client == 1 {
			bench = circuits[len(circuits)-1-i]
		}
		return JobRequest{
			Generate: bench,
			Place:    &PlaceSpec{Seed: int64(client + 1), Moves: 5},
			Options:  rapids.Spec{Iters: 2, VerifyRounds: &verify},
		}
	}
	// run submits req and follows it to its terminal status, returning
	// the Result's JSON with Elapsed zeroed. It runs on client
	// goroutines, so it reports failures instead of stopping the test.
	run := func(url string, req JobRequest) (string, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return "", err
		}
		resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			return "", fmt.Errorf("submit %s: HTTP %d %v", req.Generate, resp.StatusCode, err)
		}
		for st.State == StateQueued || st.State == StateRunning {
			time.Sleep(5 * time.Millisecond)
			resp, err := http.Get(url + "/v1/jobs/" + st.ID)
			if err != nil {
				return "", err
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				return "", err
			}
		}
		if st.State != StateDone || st.Result == nil {
			return "", fmt.Errorf("job %s: %+v", st.ID, st)
		}
		res := *st.Result
		res.Elapsed = 0
		b, err := json.Marshal(res)
		return string(b), err
	}

	got := make([][]string, 2)
	_, ts := startServer(t, Config{})
	var wg sync.WaitGroup
	for c := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range circuits {
				res, err := run(ts.URL, request(c, i))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				got[c] = append(got[c], res)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	_, serial := startServer(t, Config{Workers: 1})
	for c := range got {
		for i := range circuits {
			req := request(c, i)
			want, err := run(serial.URL, req)
			if err != nil {
				t.Fatal(err)
			}
			if got[c][i] != want {
				t.Errorf("client %d %s: concurrent result\n%s\ndiffers from the serial run's\n%s", c, req.Generate, got[c][i], want)
			}
		}
	}
}
