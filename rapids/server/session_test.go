package server

// Tests for the interactive ECO session endpoints (DESIGN.md §5d):
// HTTP life-cycle, SSE delta streaming, MaxSessions backpressure, TTL
// eviction, crash recovery from the journal (bit-identical timing),
// journal-failure safety, the §5b metrics reconciliation identity, and
// goroutine hygiene — all meant to run under -race.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/library"
	"repro/rapids"
	"repro/rapids/server/journal"
)

func quickSessionRequest(bench string) SessionRequest {
	return SessionRequest{Generate: bench, Place: &PlaceSpec{Seed: 1, Moves: 5}}
}

// sessionDo issues one request against the session API and returns the
// status code and raw body.
func sessionDo(t *testing.T, method, url, payload string) (int, []byte) {
	t.Helper()
	var body io.Reader
	if payload != "" {
		body = strings.NewReader(payload)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// openSession opens a session and decodes the 201 response.
func openSession(t *testing.T, url string, req SessionRequest) SessionStatus {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	code, body := sessionDo(t, http.MethodPost, url+"/v1/sessions", string(b))
	if code != http.StatusCreated {
		t.Fatalf("open session: want 201, got %d %s", code, body)
	}
	var st SessionStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// applyEdits posts one edit payload and decodes the 200 response.
func applyEdits(t *testing.T, url, id, payload string) EditResponse {
	t.Helper()
	code, body := sessionDo(t, http.MethodPost, url+"/v1/sessions/"+id+"/edits", payload)
	if code != http.StatusOK {
		t.Fatalf("apply edits: want 200, got %d %s", code, body)
	}
	var er EditResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	return er
}

func getSessionStatus(t *testing.T, url, id string) SessionStatus {
	t.Helper()
	code, body := sessionDo(t, http.MethodGet, url+"/v1/sessions/"+id, "")
	if code != http.StatusOK {
		t.Fatalf("GET session %s: %d %s", id, code, body)
	}
	var st SessionStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getSessionTiming(t *testing.T, url, id string) rapids.TimingView {
	t.Helper()
	code, body := sessionDo(t, http.MethodGet, url+"/v1/sessions/"+id+"/timing", "")
	if code != http.StatusOK {
		t.Fatalf("GET timing: %d %s", code, body)
	}
	var v rapids.TimingView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// resizePayload finds, over the session's critical path, a resize the
// live session accepts, applies it, and returns the canonical payload
// so a later incarnation (or a second session) can repeat it.
func resizePayload(t *testing.T, url, id string) string {
	t.Helper()
	v := getSessionTiming(t, url, id)
	for _, stage := range v.CriticalPath {
		if strings.HasPrefix(stage.Gate, "pi") {
			continue
		}
		for size := 0; size < library.NumSizes; size++ {
			if size == stage.Size {
				continue
			}
			payload := fmt.Sprintf(`{"edits":[{"kind":"resize","gate":%q,"size":%d}]}`, stage.Gate, size)
			code, _ := sessionDo(t, http.MethodPost, url+"/v1/sessions/"+id+"/edits", payload)
			if code == http.StatusOK {
				return payload
			}
		}
	}
	t.Fatal("no applicable resize found on the critical path")
	return ""
}

// TestSessionLifecycleHTTP walks the whole endpoint surface: open with
// Location header, list, status, edit batches (apply + reoptimize),
// strict request validation, the lock-free timing read, close, and the
// closed-session conflict contract.
func TestSessionLifecycleHTTP(t *testing.T) {
	_, ts := startServer(t, Config{})

	if code, _ := sessionDo(t, http.MethodGet, ts.URL+"/v1/sessions/nope", ""); code != http.StatusNotFound {
		t.Fatalf("unknown session: want 404, got %d", code)
	}

	// Open: 201 with a Location header and a fresh status.
	b, _ := json.Marshal(quickSessionRequest("c432"))
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open: want 201, got %d %s", resp.StatusCode, body)
	}
	var st SessionStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/sessions/"+st.ID {
		t.Fatalf("Location %q for session %s", loc, st.ID)
	}
	if st.State != SessionOpen || st.Circuit != "c432" || st.Gates == 0 || st.ClockNS <= 0 || st.Seq != 0 {
		t.Fatalf("fresh session status: %+v", st)
	}

	// List includes it.
	code, body := sessionDo(t, http.MethodGet, ts.URL+"/v1/sessions", "")
	var list []SessionStatus
	if code != http.StatusOK || json.Unmarshal(body, &list) != nil || len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list: %d %s", code, body)
	}

	// An edit batch advances seq and returns a populated delta.
	er := applyEdits(t, ts.URL, st.ID, `{"edits":[{"kind":"pin_arrival","gate":"pi0","time_ns":0.3}]}`)
	if er.ID != st.ID || len(er.Deltas) != 1 {
		t.Fatalf("edit response: %+v", er)
	}
	d := er.Deltas[0]
	if d.Seq != 1 || d.Edits != 1 || d.TouchedGates <= 0 || len(d.CriticalPath) == 0 {
		t.Fatalf("delta: %+v", d)
	}

	// Reoptimize without edits is a valid batch and yields its own delta.
	er = applyEdits(t, ts.URL, st.ID, `{"reoptimize":true}`)
	if len(er.Deltas) != 1 || er.Deltas[0].Seq != 2 || er.Deltas[0].Edits != 0 {
		t.Fatalf("reoptimize delta: %+v", er.Deltas)
	}

	// Strict validation: malformed, unknown field, empty, and bad edits.
	for want, payload := range map[string]string{
		"garbage":       `resize please`,
		"unknown field": `{"edits":[],"bogus":1}`,
		"empty":         `{}`,
		"invalid edit":  `{"edits":[{"kind":"upsize","gate":"g"}]}`,
	} {
		if code, _ := sessionDo(t, http.MethodPost, ts.URL+"/v1/sessions/"+st.ID+"/edits", payload); code != http.StatusBadRequest {
			t.Fatalf("%s: want 400, got %d", want, code)
		}
	}
	// Semantically invalid (unknown gate): 422, and the session is
	// untouched.
	before := getSessionStatus(t, ts.URL, st.ID)
	if code, _ := sessionDo(t, http.MethodPost, ts.URL+"/v1/sessions/"+st.ID+"/edits",
		`{"edits":[{"kind":"resize","gate":"no-such-gate","size":1}]}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown gate: want 422, got %d", code)
	}
	if after := getSessionStatus(t, ts.URL, st.ID); after.Seq != before.Seq || after.Epoch != before.Epoch {
		t.Fatalf("rejected batch mutated the session: %+v -> %+v", before, after)
	}

	// The timing read reflects the last mutation.
	v := getSessionTiming(t, ts.URL, st.ID)
	if v.Seq != 2 || v.DelayNS <= 0 || len(v.CriticalPath) == 0 {
		t.Fatalf("timing view: %+v", v)
	}

	// Close: 200 with reason client; a second close and further edits
	// conflict with the stable code.
	code, body = sessionDo(t, http.MethodDelete, ts.URL+"/v1/sessions/"+st.ID, "")
	var closed SessionStatus
	if code != http.StatusOK || json.Unmarshal(body, &closed) != nil {
		t.Fatalf("close: %d %s", code, body)
	}
	if closed.State != SessionClosed || closed.CloseReason != closeClient {
		t.Fatalf("closed status: %+v", closed)
	}
	for _, probe := range [][2]string{
		{http.MethodDelete, ""},
		{http.MethodPost, "/edits"},
	} {
		code, body := sessionDo(t, probe[0], ts.URL+"/v1/sessions/"+st.ID+probe[1],
			`{"edits":[{"kind":"pin_arrival","gate":"pi0","time_ns":1}]}`)
		var eb ErrorBody
		if code != http.StatusConflict || json.Unmarshal(body, &eb) != nil || eb.Code != CodeSessionClosed {
			t.Fatalf("%s on closed session: %d %s", probe[0], code, body)
		}
	}
	// The timing view survives the close.
	if v := getSessionTiming(t, ts.URL, st.ID); v.Seq != 2 {
		t.Fatalf("timing after close: %+v", v)
	}
}

// TestSessionSSE: the events stream replays buffered deltas, delivers
// live ones, and terminates with an "end" event carrying the closed
// status.
func TestSessionSSE(t *testing.T) {
	_, ts := startServer(t, Config{})
	st := openSession(t, ts.URL, quickSessionRequest("alu2"))
	applyEdits(t, ts.URL, st.ID, `{"edits":[{"kind":"pin_arrival","gate":"pi0","time_ns":0.2}]}`)

	resp, err := http.Get(ts.URL + "/v1/sessions/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	done := make(chan []sseEvent, 1)
	go func() {
		var got []sseEvent
		got = readSSE(t, resp.Body, nil)
		done <- got
	}()

	// A live edit and the close must both reach the subscriber.
	applyEdits(t, ts.URL, st.ID, `{"edits":[{"kind":"pin_arrival","gate":"pi1","time_ns":0.1}]}`)
	if code, _ := sessionDo(t, http.MethodDelete, ts.URL+"/v1/sessions/"+st.ID, ""); code != http.StatusOK {
		t.Fatalf("close: %d", code)
	}

	var events []sseEvent
	select {
	case events = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("SSE stream did not terminate after close")
	}
	var deltas []rapids.Delta
	for _, ev := range events {
		if ev.name != "delta" {
			continue
		}
		var d rapids.Delta
		if err := json.Unmarshal([]byte(ev.data), &d); err != nil {
			t.Fatalf("bad delta frame %q: %v", ev.data, err)
		}
		deltas = append(deltas, d)
	}
	if len(deltas) != 2 || deltas[0].Seq != 1 || deltas[1].Seq != 2 {
		t.Fatalf("delta frames: %+v", deltas)
	}
	last := events[len(events)-1]
	var end SessionStatus
	if last.name != "end" || json.Unmarshal([]byte(last.data), &end) != nil {
		t.Fatalf("terminal frame: %+v", last)
	}
	if end.State != SessionClosed || end.CloseReason != closeClient || end.Seq != 2 {
		t.Fatalf("end status: %+v", end)
	}
}

// pinEdit is an edit payload that re-pins pi0's arrival, distinct per i
// modulo 100.
func pinEdit(i int) string {
	return fmt.Sprintf(`{"edits":[{"kind":"pin_arrival","gate":"pi0","time_ns":%g}]}`, float64(i%100)/100)
}

// sessionFrame is one session SSE frame: resync (TimingView), delta,
// and end (SessionStatus) payloads all carry seq.
type sessionFrame struct {
	name, id string
	seq      int
}

func sessionFrames(t *testing.T, events []sseEvent) []sessionFrame {
	t.Helper()
	out := make([]sessionFrame, len(events))
	for i, ev := range events {
		var p struct {
			Seq int `json:"seq"`
		}
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatalf("bad %s frame %q: %v", ev.name, ev.data, err)
		}
		out[i] = sessionFrame{ev.name, ev.id, p.Seq}
	}
	return out
}

// TestSessionSSEResumeAcrossWindow: a session keeps only its
// deltaWindow latest deltas. A subscriber behind the window gets one
// resync frame carrying the current view and then only newer deltas, a
// Last-Event-ID inside the window resumes with exactly the missing
// deltas, and rapidsd_sse_resyncs_total counts every resync frame.
func TestSessionSSEResumeAcrossWindow(t *testing.T) {
	const k = deltaWindow
	s, ts := startServer(t, Config{})
	st := openSession(t, ts.URL, quickSessionRequest("alu2"))
	url := ts.URL + "/v1/sessions/" + st.ID + "/events"
	for i := 1; i <= k+5; i++ {
		applyEdits(t, ts.URL, st.ID, pinEdit(i))
	}

	// From index 0, five deltas behind the window: a resync at the
	// current view (covering every retained delta), the live delta,
	// then end.
	body := subscribe(t, url, "")
	first := make(chan struct{})
	done := make(chan []sseEvent, 1)
	go func() {
		var once sync.Once
		done <- readSSE(t, body, func(sseEvent) { once.Do(func() { close(first) }) })
	}()
	select {
	case <-first:
	case <-time.After(30 * time.Second):
		t.Fatal("no frame from a subscriber behind the window")
	}
	applyEdits(t, ts.URL, st.ID, pinEdit(k+6))
	if code, _ := sessionDo(t, http.MethodDelete, ts.URL+"/v1/sessions/"+st.ID, ""); code != http.StatusOK {
		t.Fatalf("close: %d", code)
	}
	var events []sseEvent
	select {
	case events = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("SSE stream did not terminate after close")
	}
	want := []sessionFrame{
		{"resync", fmt.Sprint(k + 4), k + 5},
		{"delta", fmt.Sprint(k + 5), k + 6},
		{"end", "", k + 6},
	}
	if got := sessionFrames(t, events); !reflect.DeepEqual(got, want) {
		t.Fatalf("subscriber from 0:\ngot  %v\nwant %v", got, want)
	}

	// The k+6 deltas have indices 0..k+5, so the window is 6..k+5.
	// Resuming after index 5 or later gets exactly the missing deltas;
	// after index 4, or with a malformed header (index 0), a resync.
	var inWindow []sessionFrame
	for i := 6; i <= k+5; i++ {
		inWindow = append(inWindow, sessionFrame{"delta", fmt.Sprint(i), i + 1})
	}
	end := sessionFrame{"end", "", k + 6}
	behind := []sessionFrame{{"resync", fmt.Sprint(k + 5), k + 6}, end}
	for _, tc := range []struct {
		lastID string
		want   []sessionFrame
	}{
		{"5", append(inWindow, end)},
		{fmt.Sprint(k + 2), append(inWindow[k-3:], end)},
		{"4", behind},
		{"garbage", behind},
	} {
		if got := sessionFrames(t, readSSE(t, subscribe(t, url, tc.lastID), nil)); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("Last-Event-ID %q:\ngot  %v\nwant %v", tc.lastID, got, tc.want)
		}
	}
	resyncs := 3

	// Subscribers racing 4k edits: one follows from the start, three
	// join behind the window mid-stream (so their first frame must be a
	// resync). Each sees strictly increasing ids and seqs, each delta
	// exactly one past the frame before it, and ends at the final seq.
	st = openSession(t, ts.URL, quickSessionRequest("alu2"))
	url = ts.URL + "/v1/sessions/" + st.ID + "/events"
	streams := make(chan []sseEvent, 4)
	follow := func(lastID string) {
		body := subscribe(t, url, lastID)
		go func() { streams <- readSSE(t, body, nil) }()
	}
	follow("")
	for i := 1; i <= 4*k; i++ {
		applyEdits(t, ts.URL, st.ID, pinEdit(i))
		if i == k+2 || i == 2*k || i == 3*k {
			follow("0")
		}
	}
	if code, _ := sessionDo(t, http.MethodDelete, ts.URL+"/v1/sessions/"+st.ID, ""); code != http.StatusOK {
		t.Fatalf("close: %d", code)
	}
	for range 4 {
		var events []sseEvent
		select {
		case events = <-streams:
		case <-time.After(60 * time.Second):
			t.Fatal("SSE stream did not terminate after close")
		}
		fs := sessionFrames(t, events)
		last := len(fs) - 1
		if last < 1 || fs[last] != (sessionFrame{"end", "", 4 * k}) || fs[last-1].seq != 4*k {
			t.Fatalf("stream does not end at seq %d: %v", 4*k, fs)
		}
		prevID, prevSeq := -1, 0
		for _, f := range fs[:last] {
			id, err := strconv.Atoi(f.id)
			if err != nil || id <= prevID || f.seq <= prevSeq || (f.name == "delta" && f.seq != prevSeq+1) {
				t.Fatalf("frame %v out of order: %v", f, fs)
			}
			if f.name == "resync" {
				resyncs++
			}
			prevID, prevSeq = id, f.seq
		}
	}
	if got := s.metrics.sseResyncs.Value(); got != uint64(resyncs) {
		t.Fatalf("sse_resyncs_total = %d, want the %d resync frames sent", got, resyncs)
	}
}

// TestSessionStreamWindow: a windowed stream serves only its keep
// latest items under stable absolute indices, and compacting never
// writes to an array a subscriber was handed.
func TestSessionStreamWindow(t *testing.T) {
	const keep = 4
	st := stream[int]{keep: keep}
	type window struct {
		start int
		items []int
	}
	var handed []window // every since(0) result, checked after all appends
	for n := 1; n <= 5*keep; n++ {
		if n%3 == 0 {
			st.append(n-1, n) // a two-item append, like an edit plus a reoptimize
			n++
		} else {
			st.append(n - 1)
		}
		items, start, _, _ := st.since(0)
		if wantStart := max(0, n-keep); start != wantStart || len(items) != n-start || items[0] != start {
			t.Fatalf("after %d items: since(0) = %v from %d", n, items, start)
		}
		handed = append(handed, window{start, items})
	}
	for _, w := range handed {
		for i, v := range w.items {
			if v != w.start+i {
				t.Fatalf("the window handed out from %d was overwritten: %v", w.start, w.items)
			}
		}
	}
	if items, start, _, _ := st.since(100); items != nil || start != 100 {
		t.Fatalf("since past the end = %v from %d", items, start)
	}
}

// TestSessionCapBackpressure: MaxSessions is a hard cap — past it,
// opens get 503 with Retry-After, and closing a session frees the slot.
func TestSessionCapBackpressure(t *testing.T) {
	s, ts := startServer(t, Config{MaxSessions: 1})
	st := openSession(t, ts.URL, quickSessionRequest("alu2"))

	b, _ := json.Marshal(quickSessionRequest("c432"))
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap open: want 503, got %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("over-cap 503 without Retry-After")
	}
	if got := s.metrics.sessionsRejected.With(sessRejectCapacity).Value(); got != 1 {
		t.Fatalf("sessions_rejected{capacity} = %d, want 1", got)
	}

	if code, _ := sessionDo(t, http.MethodDelete, ts.URL+"/v1/sessions/"+st.ID, ""); code != http.StatusOK {
		t.Fatalf("close: %d", code)
	}
	openSession(t, ts.URL, quickSessionRequest("c432")) // slot freed
}

// TestSessionEviction: an idle session is closed by the TTL sweeper
// with reason "evicted", visible in status and metrics.
func TestSessionEviction(t *testing.T) {
	s, ts := startServer(t, Config{SessionTTL: 30 * time.Millisecond})
	st := openSession(t, ts.URL, quickSessionRequest("alu2"))

	deadline := time.Now().Add(10 * time.Second)
	for {
		cur := getSessionStatus(t, ts.URL, st.ID)
		if cur.State == SessionClosed {
			if cur.CloseReason != closeEvicted {
				t.Fatalf("evicted session closed with reason %q", cur.CloseReason)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.metrics.sessionsClosed.With(closeEvicted).Value(); got != 1 {
		t.Fatalf("sessions_closed{evicted} = %d, want 1", got)
	}
}

// TestSessionCrashRecovery: sessions journaled open survive a crash —
// the next incarnation rebuilds them by replaying the edit log onto a
// fresh circuit load, bit-identical by the determinism contract — while
// sessions closed before the crash are dropped.
func TestSessionCrashRecovery(t *testing.T) {
	mem := journal.NewMem()
	s1, err := newServer(Config{Journal: mem}) // workers never started
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)

	st := openSession(t, ts1.URL, quickSessionRequest("c432"))
	resize := resizePayload(t, ts1.URL, st.ID)
	applyEdits(t, ts1.URL, st.ID, `{"edits":[{"kind":"pin_arrival","gate":"pi0","time_ns":0.4}]}`)
	preCrash := getSessionTiming(t, ts1.URL, st.ID)
	if preCrash.Seq != 2 {
		t.Fatalf("pre-crash seq: %+v", preCrash)
	}

	// A second session, closed before the crash: replay must drop it.
	gone := openSession(t, ts1.URL, quickSessionRequest("alu2"))
	if code, _ := sessionDo(t, http.MethodDelete, ts1.URL+"/v1/sessions/"+gone.ID, ""); code != http.StatusOK {
		t.Fatal("closing second session")
	}
	ts1.Close() // the process dies with one session open

	s2, ts2 := startServer(t, Config{Journal: mem})
	got := getSessionStatus(t, ts2.URL, st.ID)
	if got.State != SessionOpen || !got.Recovered {
		t.Fatalf("recovered session status: %+v", got)
	}
	if got.Edits != 2 || got.Seq != 2 {
		t.Fatalf("recovered session lost edits: %+v", got)
	}
	rec := getSessionTiming(t, ts2.URL, st.ID)
	if rec.DelayNS != preCrash.DelayNS || rec.LatenessNS != preCrash.LatenessNS {
		t.Fatalf("recovered timing diverged: pre-crash delay %.12g lateness %.12g, recovered %.12g %.12g",
			preCrash.DelayNS, preCrash.LatenessNS, rec.DelayNS, rec.LatenessNS)
	}
	if code, _ := sessionDo(t, http.MethodGet, ts2.URL+"/v1/sessions/"+gone.ID, ""); code != http.StatusNotFound {
		t.Fatalf("closed session resurrected: %d", code)
	}
	if got := s2.metrics.sessionsReplayed.With("reopened").Value(); got != 1 {
		t.Fatalf("sessions_replayed{reopened} = %d, want 1", got)
	}
	if got := s2.metrics.sessionsReplayed.With("dropped").Value(); got != 1 {
		t.Fatalf("sessions_replayed{dropped} = %d, want 1", got)
	}

	// The recovered session is live: the same resize class still
	// applies and advances the replayed sequence.
	er := applyEdits(t, ts2.URL, st.ID, resize)
	if len(er.Deltas) != 1 || er.Deltas[0].Seq != 3 {
		t.Fatalf("post-recovery edit: %+v", er.Deltas)
	}
	_ = s1
}

// TestSessionJournalFailureClosesSession: a batch that applied but
// could not be journaled closes the session (a replay would diverge
// from the live circuit), surfacing 503 and reason "journal".
func TestSessionJournalFailureClosesSession(t *testing.T) {
	var failing atomic.Bool
	hooks := &FaultHooks{JournalAppend: func(e journal.Entry) error {
		if failing.Load() && e.Op == journal.OpSessionEdit {
			return errors.New("injected: disk full")
		}
		return nil
	}}
	s, ts := startServer(t, Config{Journal: journal.NewMem(), Hooks: hooks})
	st := openSession(t, ts.URL, quickSessionRequest("alu2"))

	failing.Store(true)
	code, body := sessionDo(t, http.MethodPost, ts.URL+"/v1/sessions/"+st.ID+"/edits",
		`{"edits":[{"kind":"pin_arrival","gate":"pi0","time_ns":0.5}]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("edit with failing journal: want 503, got %d %s", code, body)
	}
	got := getSessionStatus(t, ts.URL, st.ID)
	if got.State != SessionClosed || got.CloseReason != closeJournal {
		t.Fatalf("session after journal failure: %+v", got)
	}
	if got := s.metrics.sessionsClosed.With(closeJournal).Value(); got != 1 {
		t.Fatalf("sessions_closed{journal} = %d, want 1", got)
	}
	if code, _ := sessionDo(t, http.MethodPost, ts.URL+"/v1/sessions/"+st.ID+"/edits",
		`{"edits":[{"kind":"pin_arrival","gate":"pi0","time_ns":0.5}]}`); code != http.StatusConflict {
		t.Fatalf("edit on journal-closed session: want 409, got %d", code)
	}
}

// TestSessionReoptimizeFailureClosesSession: a batch whose edits applied
// but whose re-optimization failed is not journaled, so the session
// closes (reason "reoptimize", journaled) with a 500 saying so, and a
// restart replays the session as closed instead of rebuilding a circuit
// without the batch.
func TestSessionReoptimizeFailureClosesSession(t *testing.T) {
	mem := journal.NewMem()
	hooks := &FaultHooks{Reoptimize: func(string) error { return errors.New("injected: pass failed") }}
	s1, err := newServer(Config{Journal: mem, Hooks: hooks}) // workers never started
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	st := openSession(t, ts1.URL, quickSessionRequest("alu2"))

	code, body := sessionDo(t, http.MethodPost, ts1.URL+"/v1/sessions/"+st.ID+"/edits",
		`{"edits":[{"kind":"pin_arrival","gate":"pi0","time_ns":0.5}],"reoptimize":true}`)
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || code != http.StatusInternalServerError ||
		!strings.Contains(eb.Error, "session closed") {
		t.Fatalf("edit with failing re-optimization: want 500 naming the close, got %d %s", code, body)
	}
	got := getSessionStatus(t, ts1.URL, st.ID)
	if got.State != SessionClosed || got.CloseReason != closeReoptimize || got.Edits != 0 {
		t.Fatalf("session after re-optimization failure: %+v", got)
	}
	if got := s1.metrics.sessionsClosed.With(closeReoptimize).Value(); got != 1 {
		t.Fatalf("sessions_closed{reoptimize} = %d, want 1", got)
	}
	if code, _ := sessionDo(t, http.MethodPost, ts1.URL+"/v1/sessions/"+st.ID+"/edits",
		`{"reoptimize":true}`); code != http.StatusConflict {
		t.Fatalf("edit on a closed session: want 409, got %d", code)
	}
	var ops []journal.Op
	for _, e := range mem.Entries() {
		if e.JobID == st.ID {
			ops = append(ops, e.Op)
			if e.Op == journal.OpSessionClosed && e.Error != closeReoptimize {
				t.Fatalf("journaled close reason %q, want %q", e.Error, closeReoptimize)
			}
		}
	}
	if want := []journal.Op{journal.OpSessionOpened, journal.OpSessionClosed}; !slices.Equal(ops, want) {
		t.Fatalf("journaled session ops %v, want %v", ops, want)
	}
	ts1.Close()

	s2, ts2 := startServer(t, Config{Journal: mem})
	if code, _ := sessionDo(t, http.MethodGet, ts2.URL+"/v1/sessions/"+st.ID, ""); code != http.StatusNotFound {
		t.Fatalf("session closed by a failed re-optimization was rebuilt: %d", code)
	}
	if got := s2.metrics.sessionsReplayed.With("dropped").Value(); got != 1 {
		t.Fatalf("sessions_replayed{dropped} = %d, want 1", got)
	}
}

// TestSessionMetricsReconciliation checks the §5b session funnel
// identity on live instruments:
//
//	sessions_opened + sessions_replayed{reopened}
//	    == sessions_active + sum over reasons of sessions_closed
func TestSessionMetricsReconciliation(t *testing.T) {
	s, ts := startServer(t, Config{})
	a := openSession(t, ts.URL, quickSessionRequest("alu2"))
	openSession(t, ts.URL, quickSessionRequest("c432"))
	applyEdits(t, ts.URL, a.ID, `{"edits":[{"kind":"pin_arrival","gate":"pi0","time_ns":0.1}]}`)
	sessionDo(t, http.MethodDelete, ts.URL+"/v1/sessions/"+a.ID, "")

	m := s.metrics
	var closed uint64
	for _, reason := range []string{closeClient, closeEvicted, closeDrain, closeJournal, closeReoptimize} {
		closed += m.sessionsClosed.With(reason).Value()
	}
	in := m.sessionsOpened.Value() + m.sessionsReplayed.With("reopened").Value()
	out := uint64(m.sessionsActive.Value()) + closed
	if in != out {
		t.Fatalf("session funnel does not reconcile: opened+reopened=%d, active+closed=%d", in, out)
	}
	if m.sessionsOpened.Value() != 2 || m.sessionsActive.Value() != 1 {
		t.Fatalf("funnel legs: opened=%d active=%d", m.sessionsOpened.Value(), m.sessionsActive.Value())
	}
	if m.sessionEdits.Value() != 1 {
		t.Fatalf("session_edits_total = %d, want 1", m.sessionEdits.Value())
	}
}

// TestSessionGoroutineLeaks: the whole session life-cycle — sweeper,
// SSE subscribers (one seen out, one abandoned), edits, close, drain —
// settles back to the baseline goroutine count.
func TestSessionGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	func() {
		s, err := New(Config{SessionTTL: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		defer ts.Close()

		a := openSession(t, ts.URL, quickSessionRequest("alu2"))
		b := openSession(t, ts.URL, quickSessionRequest("c432"))

		respA, err := http.Get(ts.URL + "/v1/sessions/" + a.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		abandoned, err := http.Get(ts.URL + "/v1/sessions/" + b.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		abandoned.Body.Close() // disconnect immediately

		applyEdits(t, ts.URL, a.ID, `{"edits":[{"kind":"pin_arrival","gate":"pi0","time_ns":0.2}]}`)
		if code, _ := sessionDo(t, http.MethodDelete, ts.URL+"/v1/sessions/"+a.ID, ""); code != http.StatusOK {
			t.Fatal("close")
		}
		readSSE(t, respA.Body, nil) // runs to the end event
		respA.Body.Close()

		// b is still open: Shutdown must drain it (reason "drain").
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		if st := getSessionStatus(t, ts.URL, b.ID); st.State != SessionClosed || st.CloseReason != closeDrain {
			t.Fatalf("session not drained at shutdown: %+v", st)
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
