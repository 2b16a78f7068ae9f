package server

// Life-cycle tests for the batch-optimization service: determinism
// against direct facade runs, SSE streaming, cache hits, cancellation
// (anytime best-so-far), queue backpressure, graceful drain, and
// goroutine hygiene — all meant to run under -race.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/rapids"
	"repro/rapids/server/store"
)

// quickSpec is a small, fast option set used by most tests.
func quickSpec() rapids.Spec {
	verify := 8
	return rapids.Spec{Iters: 2, Workers: 1, VerifyRounds: &verify}
}

func quickRequest(bench string) JobRequest {
	return JobRequest{
		Generate: bench,
		Place:    &PlaceSpec{Seed: 1, Moves: 5},
		Options:  quickSpec(),
	}
}

// directRun reproduces a job request through the facade directly — the
// oracle every server result must match byte-for-byte (Elapsed aside).
func directRun(t *testing.T, req JobRequest) *rapids.Result {
	t.Helper()
	c, err := rapids.Generate(req.Generate)
	if err != nil {
		t.Fatal(err)
	}
	p := req.Place.withDefaults()
	c.Place(rapids.PlaceSeed(p.Seed), rapids.PlaceMoves(p.Moves), rapids.PlaceAspect(p.Aspect))
	res, err := c.Optimize(context.Background(), req.Options.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameResult compares two Results ignoring only wall-clock time.
func sameResult(a, b *rapids.Result) bool {
	ca, cb := *a, *b
	ca.Elapsed, cb.Elapsed = 0, 0
	return reflect.DeepEqual(ca, cb)
}

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx) // second Shutdown in a test is a harmless error
	})
	return s, ts
}

func submit(t *testing.T, url string, req JobRequest) (JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return st, resp.StatusCode
}

func getStatus(t *testing.T, url, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET job %s: %d %s", id, resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal polls until the job leaves queued/running.
func waitTerminal(t *testing.T, url, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, url, id)
		if st.State != StateQueued && st.State != StateRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id   string
	name string
	data string
}

// readSSE consumes the stream until the "end" event (or EOF), calling
// onEvent after each event (nil ok).
func readSSE(t *testing.T, body io.Reader, onEvent func(sseEvent)) []sseEvent {
	t.Helper()
	var (
		events []sseEvent
		cur    sseEvent
	)
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.id == "" && cur.name == "" && cur.data == "" {
				continue
			}
			events = append(events, cur)
			if onEvent != nil {
				onEvent(cur)
			}
			if cur.name == "end" {
				return events
			}
			cur = sseEvent{}
		}
	}
	return events
}

// TestJobLifecycleMatchesDirectRun: a job submitted over HTTP produces
// the exact Result a direct facade call does — the service adds
// transport, not nondeterminism.
func TestJobLifecycleMatchesDirectRun(t *testing.T) {
	_, ts := startServer(t, Config{})
	req := quickRequest("c432")

	st, code := submit(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: want 202, got %d", code)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job in state %s", st.State)
	}

	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("job did not finish cleanly: %+v", final)
	}
	if final.Circuit != "c432" || final.Gates == 0 {
		t.Fatalf("job lost its circuit identity: %+v", final)
	}
	if final.Result.Verification != rapids.VerifyPassed {
		t.Fatalf("verification: %v", final.Result.Verification)
	}

	want := directRun(t, req)
	if !sameResult(want, final.Result) {
		t.Fatalf("server result diverged from direct facade run:\ndirect %+v\nserver %+v", want, final.Result)
	}
}

// TestInlineNetlistJob: the Netlist source path, BLIF payload inline.
func TestInlineNetlistJob(t *testing.T) {
	_, ts := startServer(t, Config{})
	verify := 4
	req := JobRequest{
		Netlist: `.model tiny
.inputs a b c
.outputs y
.names a b t
11 0
.names t c y
11 0
.end
`,
		Format:  "blif",
		Place:   &PlaceSpec{Moves: 5},
		Options: rapids.Spec{Iters: 1, Workers: 1, VerifyRounds: &verify},
	}
	st, code := submit(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: want 202, got %d", code)
	}
	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != StateDone || final.Circuit != "tiny" {
		t.Fatalf("inline netlist job failed: %+v", final)
	}

	// Format "" (auto) parses inline payloads as BLIF, so it must
	// share a cache key with the explicit spelling.
	reqAuto := req
	reqAuto.Format = ""
	stAuto, codeAuto := submit(t, ts.URL, reqAuto)
	if codeAuto != http.StatusOK || !stAuto.Cached {
		t.Fatalf("auto-format resubmission must hit the blif cache entry: code %d, %+v", codeAuto, stAuto)
	}
}

// TestSSEStreamDeliversTypedEvents: the event stream replays the whole
// run — start, phases, verify, done — and the done event carries the
// same Result the status endpoint reports.
func TestSSEStreamDeliversTypedEvents(t *testing.T) {
	_, ts := startServer(t, Config{})
	st, _ := submit(t, ts.URL, quickRequest("c432"))

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := readSSE(t, resp.Body, nil)
	if len(events) == 0 || events[len(events)-1].name != "end" {
		t.Fatalf("stream did not end cleanly: %+v", events)
	}

	var kinds []string
	var doneResult *rapids.Result
	for _, e := range events[:len(events)-1] {
		var ev rapids.Event
		if err := json.Unmarshal([]byte(e.data), &ev); err != nil {
			t.Fatalf("event %q does not decode as rapids.Event: %v", e.data, err)
		}
		if e.name != ev.Kind.String() {
			t.Fatalf("SSE event name %q disagrees with payload kind %q", e.name, ev.Kind)
		}
		if len(kinds) == 0 || kinds[len(kinds)-1] != e.name {
			kinds = append(kinds, e.name)
		}
		if ev.Kind == rapids.EventDone {
			doneResult = ev.Result
		}
	}
	if want := []string{"start", "phase", "verify", "done"}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("event kinds %v, want %v", kinds, want)
	}

	final := waitTerminal(t, ts.URL, st.ID)
	if doneResult == nil || !sameResult(doneResult, final.Result) {
		t.Fatalf("done event result diverges from job status:\nevent  %+v\nstatus %+v", doneResult, final.Result)
	}

	// Late subscription replays the finished run identically.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay := readSSE(t, resp2.Body, nil)
	if !reflect.DeepEqual(events, replay) {
		t.Fatalf("replayed stream differs:\nlive   %+v\nreplay %+v", events, replay)
	}
}

// subscribe opens an SSE stream, resuming with lastID as Last-Event-ID
// when it is non-empty. The body is closed at cleanup.
func subscribe(t *testing.T, url, lastID string) io.Reader {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return resp.Body
}

// TestJobSSELastEventIDResume: every job frame carries its index as its
// id, a reconnect with Last-Event-ID N resumes at frame N+1, and a
// malformed header replays from the start.
func TestJobSSELastEventIDResume(t *testing.T) {
	_, ts := startServer(t, Config{})
	st, _ := submit(t, ts.URL, quickRequest("c432"))
	waitTerminal(t, ts.URL, st.ID)
	url := ts.URL + "/v1/jobs/" + st.ID + "/events"

	full := readSSE(t, subscribe(t, url, ""), nil)
	if len(full) < 4 || full[len(full)-1].name != "end" {
		t.Fatalf("full stream: %+v", full)
	}
	for i, ev := range full[:len(full)-1] {
		if ev.id != fmt.Sprint(i) {
			t.Fatalf("frame %d has id %q", i, ev.id)
		}
	}
	for _, tc := range []struct {
		lastID string
		want   []sseEvent
	}{
		{"2", full[3:]},
		{fmt.Sprint(len(full) - 2), full[len(full)-1:]},
		{"garbage", full},
		{"-1", full},
	} {
		if got := readSSE(t, subscribe(t, url, tc.lastID), nil); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("Last-Event-ID %q:\ngot  %+v\nwant %+v", tc.lastID, got, tc.want)
		}
	}
}

// TestCacheHitDeterminism: resubmitting an identical request is served
// from the cache — born done, marked cached, same Result pointer-free
// equality — and a request differing in any result-affecting option
// misses; one differing only in Workers hits (results are bit-identical
// at every worker count), and so does one differing only in a regions
// value above 1.
func TestCacheHitDeterminism(t *testing.T) {
	_, ts := startServer(t, Config{})
	req := quickRequest("c432")

	st, _ := submit(t, ts.URL, req)
	first := waitTerminal(t, ts.URL, st.ID)
	if first.State != StateDone || first.Cached {
		t.Fatalf("first run must not be cached: %+v", first)
	}

	st2, code := submit(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("cache hit should answer 200, got %d", code)
	}
	if !st2.Cached || st2.State != StateDone || st2.Result == nil {
		t.Fatalf("resubmission was not a cache hit: %+v", st2)
	}
	if !sameResult(first.Result, st2.Result) {
		t.Fatalf("cached result differs:\nfirst %+v\nhit   %+v", first.Result, st2.Result)
	}
	if st2.Circuit != first.Circuit || st2.Gates != first.Gates {
		t.Fatalf("cache hit lost circuit identity: %+v", st2)
	}

	// The cached job's SSE stream still serves a done event.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st2.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body, nil)
	if len(events) != 2 || events[0].name != "done" || events[1].name != "end" {
		t.Fatalf("cached job stream: %+v", events)
	}

	// Workers is excluded from the key: scoring parallelism does not
	// change results, so it must not fragment the cache.
	reqW := req
	reqW.Options.Workers = 2
	stW, codeW := submit(t, ts.URL, reqW)
	if codeW != http.StatusOK || !stW.Cached {
		t.Fatalf("workers-only change must still hit the cache: code %d, %+v", codeW, stW)
	}

	// So is a deadline: it never changes a completed Result.
	reqT := req
	reqT.Options.TimeoutMS = 600000
	stT, codeT := submit(t, ts.URL, reqT)
	if codeT != http.StatusOK || !stT.Cached {
		t.Fatalf("timeout-only change must still hit the cache: code %d, %+v", codeT, stT)
	}

	// Every regions value above 1 runs the same rounds, so it shares
	// one key: a regions 8 resubmission of a regions 2 job hits.
	reqR := req
	reqR.Options.Regions = 2
	stR, codeR := submit(t, ts.URL, reqR)
	if codeR != http.StatusAccepted || stR.Cached {
		t.Fatalf("first regions run must miss the cache: code %d, %+v", codeR, stR)
	}
	waitTerminal(t, ts.URL, stR.ID)
	reqR.Options.Regions = 8
	stR8, codeR8 := submit(t, ts.URL, reqR)
	if codeR8 != http.StatusOK || !stR8.Cached {
		t.Fatalf("regions 8 must hit the regions 2 entry: code %d, %+v", codeR8, stR8)
	}

	// Any result-affecting option is part of the key.
	reqI := req
	reqI.Options.Iters = 3
	stI, codeI := submit(t, ts.URL, reqI)
	if codeI != http.StatusAccepted || stI.Cached {
		t.Fatalf("iters change must miss the cache: code %d, %+v", codeI, stI)
	}
	waitTerminal(t, ts.URL, stI.ID)
}

// TestCancelMidJob: DELETE on a running job stops it at the next phase
// boundary with the best-so-far result, per the facade's anytime
// contract.
func TestCancelMidJob(t *testing.T) {
	_, ts := startServer(t, Config{})
	verify := 8
	// A mid-size circuit so the run comfortably outlives the DELETE round
	// trip: the cancel must land while phases are still being emitted, and
	// alu2-sized jobs now finish faster than an HTTP exchange.
	req := JobRequest{
		Generate: "s13207",
		Place:    &PlaceSpec{Moves: 5},
		Options:  rapids.Spec{Iters: 10, Workers: 1, VerifyRounds: &verify},
	}
	st, code := submit(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}

	// Watch the stream; cancel as soon as the first phase lands.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	cancelled := false
	readSSE(t, resp.Body, func(e sseEvent) {
		if e.name == "phase" && !cancelled {
			cancelled = true
			del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
			if err != nil {
				t.Fatal(err)
			}
			dresp, err := http.DefaultClient.Do(del)
			if err != nil {
				t.Fatal(err)
			}
			dresp.Body.Close()
			if dresp.StatusCode != http.StatusAccepted {
				t.Errorf("DELETE on running job: want 202, got %d", dresp.StatusCode)
			}
		}
	})
	if !cancelled {
		t.Fatal("no phase event arrived before the run finished; cannot exercise cancel")
	}

	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("state %s after cancel", final.State)
	}
	if final.Result == nil || !final.Result.Interrupted {
		t.Fatalf("canceled job must carry the best-so-far interrupted result: %+v", final)
	}
	if final.Result.FinalDelayNS > final.Result.InitialDelayNS+1e-9 {
		t.Fatalf("best-so-far is slower than the input: %+v", final.Result)
	}
	if final.Result.Verification != rapids.VerifySkipped {
		t.Fatalf("interrupted runs skip verification: %v", final.Result.Verification)
	}

	// A second DELETE hits a terminal job: 409 with the typed error.
	del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE on finished job: want 409, got %d", dresp.StatusCode)
	}
	var eb ErrorBody
	if err := json.NewDecoder(dresp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != CodeJobAlreadyTerminal || eb.State != StateCanceled {
		t.Fatalf("409 body: %+v", eb)
	}
}

// TestQueueBackpressure uses a server without workers so queue states
// are fully deterministic: QueueCap jobs are accepted, the next is
// rejected with 503, and starting the workers drains everything.
func TestQueueBackpressure(t *testing.T) {
	s, err := newServer(Config{Workers: 1, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	var ids []string
	for i := 0; i < 2; i++ {
		st, code := submit(t, ts.URL, quickRequest("c432"))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: want 202, got %d", i, code)
		}
		ids = append(ids, st.ID)
	}

	// The over-capacity submit is refused with a Retry-After hint and
	// counted as a queue-full rejection.
	body, err := json.Marshal(quickRequest("c432"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit: want 503, got %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-full 503 carries no Retry-After header")
	}
	if got := scrape(t, ts.URL)[`rapidsd_submissions_total{outcome="rejected_queue_full"}`]; got != 1 {
		t.Fatalf(`submissions_total{outcome="rejected_queue_full"} = %v, want 1`, got)
	}
	// The rejected job must not linger in the listing.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listed []JobStatus
	json.NewDecoder(resp.Body).Decode(&listed)
	resp.Body.Close()
	if len(listed) != 2 {
		t.Fatalf("rejected submission leaked into the job list: %+v", listed)
	}

	// Start the pool; everything queued must drain. (Both jobs carry
	// the same key, so the second is NOT a cache hit — it was queued
	// before the first finished — but must still complete.)
	s.start()
	for _, id := range ids {
		if st := waitTerminal(t, ts.URL, id); st.State != StateDone {
			t.Fatalf("queued job %s ended %s: %+v", id, st.State, st)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulDrain: Shutdown lets queued and running jobs finish,
// rejects new work immediately, and is idempotent-but-erroring on the
// second call.
func TestGracefulDrain(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		st, code := submit(t, ts.URL, quickRequest("c432"))
		if code != http.StatusAccepted && code != http.StatusOK { // later submits may hit the cache
			t.Fatalf("submit %d: %d", i, code)
		}
		ids = append(ids, st.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		if st := getStatus(t, ts.URL, id); st.State != StateDone {
			t.Fatalf("job %s not drained: %+v", id, st)
		}
	}

	if _, code := submit(t, ts.URL, quickRequest("c499")); code != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted work: %d", code)
	}
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("second Shutdown must error")
	}
}

// TestDrainDeadlineCancelsRunning: when the drain context expires, the
// running job is cancelled and lands canceled with a best-so-far
// result instead of being abandoned. The attempt is held in a hook
// until its context ends, so the deadline always finds it running —
// a real alu2 run finishes in about the 50 ms the drain allows.
func TestDrainDeadlineCancelsRunning(t *testing.T) {
	started := make(chan struct{})
	hooks := &FaultHooks{BeforeAttempt: func(ctx context.Context, jobID string, attempt int) {
		close(started)
		<-ctx.Done()
	}}
	s, ts := startServer(t, Config{Hooks: hooks})
	verify := 4
	st, _ := submit(t, ts.URL, JobRequest{
		Generate: "alu2",
		Place:    &PlaceSpec{Moves: 5},
		Options:  rapids.Spec{Iters: 12, Workers: 1, VerifyRounds: &verify},
	})

	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown with a running job: want %v, got %v", context.DeadlineExceeded, err)
	}
	final := getStatus(t, ts.URL, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("job running at the drain deadline ended in state %s, want %s", final.State, StateCanceled)
	}
	if final.Result == nil || !final.Result.Interrupted {
		t.Fatalf("cancelled-at-deadline job lost its best-so-far result: %+v", final)
	}
}

// TestSubmitValidation: malformed submissions are rejected up front.
func TestSubmitValidation(t *testing.T) {
	_, ts := startServer(t, Config{})
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := post(`{`); code != http.StatusBadRequest {
		t.Fatalf("truncated JSON: %d", code)
	}
	if code := post(`{}`); code != http.StatusBadRequest {
		t.Fatalf("no source: %d", code)
	}
	if code := post(`{"generate":"alu2","netlist":".model x\n.end\n"}`); code != http.StatusBadRequest {
		t.Fatalf("two sources: %d", code)
	}
	if code := post(`{"generate":"alu2","format":"vhdl"}`); code != http.StatusBadRequest {
		t.Fatalf("bad format: %d", code)
	}
	if code := post(`{"generate":"alu2","options":{"strategy":"fastest"}}`); code != http.StatusBadRequest {
		t.Fatalf("bad strategy: %d", code)
	}
	if code := post(`{"generate":"alu2","bogus_field":1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", code)
	}
	// Unknown benchmark: accepted, then fails at load time.
	st, code := submit(t, ts.URL, JobRequest{Generate: "nonesuch", Options: quickSpec()})
	if code != http.StatusAccepted {
		t.Fatalf("unknown benchmark submit: %d", code)
	}
	if final := waitTerminal(t, ts.URL, st.ID); final.State != StateFailed || final.Error == "" {
		t.Fatalf("unknown benchmark should fail the job: %+v", final)
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job id: %d", resp.StatusCode)
		}
	}
}

// TestNoGoroutineLeaks: a full life cycle — runs, a cancel, SSE
// subscribers, shutdown — returns the process to its goroutine
// baseline. Run under -race in CI (make serve-smoke).
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	func() {
		s, err := New(Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		defer ts.Close()

		st1, _ := submit(t, ts.URL, quickRequest("c432"))
		verify := 4
		st2, _ := submit(t, ts.URL, JobRequest{
			Generate: "alu2",
			Place:    &PlaceSpec{Moves: 5},
			Options:  rapids.Spec{Iters: 10, Workers: 1, VerifyRounds: &verify},
		})

		// One SSE subscriber that sees the run out, one that abandons.
		respA, err := http.Get(ts.URL + "/v1/jobs/" + st1.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		abandoned, err := http.Get(ts.URL + "/v1/jobs/" + st2.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		abandoned.Body.Close() // disconnect immediately

		waitTerminal(t, ts.URL, st1.ID)
		readSSE(t, respA.Body, nil)
		respA.Body.Close()

		del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st2.ID, nil)
		dresp, err := http.DefaultClient.Do(del)
		if err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
		waitTerminal(t, ts.URL, st2.ID)

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
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
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHealthz sanity-checks the liveness endpoint: one worker per core
// by default, and an idle admission gate.
func TestHealthz(t *testing.T) {
	_, ts := startServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status    string         `json:"status"`
		Workers   int            `json:"workers"`
		Admission map[string]int `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	idle := map[string]int{"mark_gates": 0, "admitted_gates": 0, "waiting": 0}
	if h.Status != "ok" || h.Workers != runtime.GOMAXPROCS(0) || !maps.Equal(h.Admission, idle) {
		t.Fatalf("healthz: %+v", h)
	}
}

// TestCacheEviction exercises the local tier's LRU bound directly: the
// bounded store.Mem newTiers builds, its eviction counter, and a
// disabled local tier that stays inert.
func TestCacheEviction(t *testing.T) {
	m := newServerMetrics()
	c, tiers := newTiers(Config{CacheCap: 2}, m)
	if len(tiers) != 1 || tiers[0].Store != c {
		t.Fatalf("tiers %+v, want the local Mem alone", tiers)
	}
	mk := func(key string) store.Entry { return store.NewEntry(key, key, 1, json.RawMessage(`{}`)) }
	c.Put(mk("a"))
	c.Put(mk("b"))
	if _, ok, _ := c.Get("a"); !ok { // refresh a
		t.Fatal("a missing")
	}
	c.Put(mk("c")) // evicts b (least recently used)
	if _, ok, _ := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok, _ := c.Get(k); !ok {
			t.Fatalf("%s should survive", k)
		}
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("len %d", got)
	}
	if got := m.cacheEvictions.Value(); got != 1 {
		t.Fatalf("evictions counter = %d, want 1", got)
	}

	s, err := newServer(Config{CacheCap: -1})
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	s.publishResult(key, "c432", 1, &rapids.Result{FinalDelayNS: 1})
	if _, res, _ := s.lookupResult(key); res != nil || s.local != nil || len(s.tiers) != 0 {
		t.Fatal("disabled cache must be inert")
	}
}

func ExampleServer() {
	// A compact end-to-end tour: boot, submit, read the result.
	s, _ := New(Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	verify := 4
	body, _ := json.Marshal(JobRequest{
		Generate: "c432",
		Place:    &PlaceSpec{Moves: 5},
		Options:  rapids.Spec{Iters: 1, Workers: 1, VerifyRounds: &verify},
	})
	resp, _ := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()

	for st.State == StateQueued || st.State == StateRunning {
		time.Sleep(5 * time.Millisecond)
		r, _ := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
	}
	fmt.Println(st.State, st.Circuit, st.Result.Verification)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Shutdown(ctx)
	// Output:
	// done c432 passed
}
