package server

// Tests of the shared job/session life cycle: the journal format pinned
// byte for byte against a golden file (and a journal written in that
// format still replays), and the open path's atomicity when the
// opening journal append fails while a concurrent open completes.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/rapids"
	"repro/rapids/server/journal"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

const journalGolden = "testdata/journal.golden.jsonl"

// stableEntry zeroes an entry's wall-clock fields (append time, stint
// timings, the Result's Elapsed) so two runs of one script compare
// byte for byte.
func stableEntry(t *testing.T, e journal.Entry) journal.Entry {
	t.Helper()
	e.Time = time.Time{}
	e.QueuedFor, e.RanFor, e.AdmissionWait = 0, 0, 0
	if len(e.Result) > 0 {
		var res rapids.Result
		if err := json.Unmarshal(e.Result, &res); err != nil {
			t.Fatalf("%s entry for %s: %v", e.Op, e.JobID, err)
		}
		res.Elapsed = 0
		b, err := json.Marshal(&res)
		if err != nil {
			t.Fatal(err)
		}
		e.Result = b
	}
	return e
}

// stableJobStatus zeroes what a replayed status legitimately reports
// differently from the live one: wall-clock timings and the Recovered
// mark.
func stableJobStatus(st JobStatus) JobStatus {
	st.QueuedFor, st.RanFor, st.AdmissionWait, st.Recovered = 0, 0, 0, false
	if st.Result != nil {
		res := *st.Result
		res.Elapsed = 0
		st.Result = &res
	}
	return st
}

func listJSON[T any](t *testing.T, url string) []T {
	t.Helper()
	code, body := sessionDo(t, http.MethodGet, url, "")
	var out []T
	if code != http.StatusOK || json.Unmarshal(body, &out) != nil {
		t.Fatalf("GET %s: %d %s", url, code, body)
	}
	return out
}

// TestJournalGolden drives a fixed script — a generated job that
// finishes, its cache-hit resubmission, an inline netlist that fails to
// parse, a session with two edit batches (the second reoptimizing) then
// closed, and a second session left open — and compares the journal it
// writes, wall-clock fields zeroed, to testdata/journal.golden.jsonl.
// It then replays the golden file into a fresh server and checks every
// job and session status against the live run's: a journal written in
// the pinned format still recovers. Run with -update to regenerate the
// golden file after an intentional format change.
func TestJournalGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two optimizations and two sessions")
	}
	mem := journal.NewMem()
	_, ts := startServer(t, Config{Journal: mem})

	done, _ := submit(t, ts.URL, quickRequest("alu2"))
	waitTerminal(t, ts.URL, done.ID)
	if hit, code := submit(t, ts.URL, quickRequest("alu2")); code != http.StatusOK || !hit.Cached {
		t.Fatalf("resubmission: want a 200 cache hit, got %d %+v", code, hit)
	}
	bad, _ := submit(t, ts.URL, JobRequest{Netlist: ".model broken\n.names\n", Format: "blif", Options: quickSpec()})
	if st := waitTerminal(t, ts.URL, bad.ID); st.State != StateFailed {
		t.Fatalf("unparsable netlist: want failed, got %+v", st)
	}

	a := openSession(t, ts.URL, quickSessionRequest("alu2"))
	applyEdits(t, ts.URL, a.ID, `{"edits":[{"kind":"pin_arrival","gate":"pi0","time_ns":0.3}]}`)
	applyEdits(t, ts.URL, a.ID, `{"edits":[{"kind":"pin_arrival","gate":"pi1","time_ns":0.1}],"reoptimize":true}`)
	if code, body := sessionDo(t, http.MethodDelete, ts.URL+"/v1/sessions/"+a.ID, ""); code != http.StatusOK {
		t.Fatalf("close: %d %s", code, body)
	}
	b := openSession(t, ts.URL, quickSessionRequest("c432"))

	liveJobs := listJSON[JobStatus](t, ts.URL+"/v1/jobs")
	liveOpen := getSessionStatus(t, ts.URL, b.ID)

	var got bytes.Buffer
	for _, e := range mem.Entries() {
		line, err := json.Marshal(stableEntry(t, e))
		if err != nil {
			t.Fatal(err)
		}
		got.Write(line)
		got.WriteByte('\n')
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(journalGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(journalGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(journalGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("journal entry %d differs from %s:\ngot  %s\nwant %s", i, journalGolden, gl[i], wl[i])
			}
		}
		t.Fatalf("journal has %d lines, %s has %d", len(gl), journalGolden, len(wl))
	}

	// Replay the golden file, not the live journal.
	golden := journal.NewMem()
	sc := bufio.NewScanner(bytes.NewReader(want))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var e journal.Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		golden.Append(e)
	}
	s2, err := newServer(Config{Journal: golden})
	if err != nil {
		t.Fatalf("replaying %s: %v", journalGolden, err)
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()

	replayed := listJSON[JobStatus](t, ts2.URL+"/v1/jobs")
	if len(replayed) != len(liveJobs) {
		t.Fatalf("replayed %d jobs, the live run had %d", len(replayed), len(liveJobs))
	}
	for i := range replayed {
		if !replayed[i].Recovered {
			t.Fatalf("replayed job %s not marked recovered", replayed[i].ID)
		}
		if r, l := stableJobStatus(replayed[i]), stableJobStatus(liveJobs[i]); !reflect.DeepEqual(r, l) {
			t.Fatalf("replayed job status diverged:\nlive     %+v\nreplayed %+v", l, r)
		}
	}
	if code, _ := sessionDo(t, http.MethodGet, ts2.URL+"/v1/sessions/"+a.ID, ""); code != http.StatusNotFound {
		t.Fatalf("closed session %s replayed: %d", a.ID, code)
	}
	sessions := listJSON[SessionStatus](t, ts2.URL+"/v1/sessions")
	if len(sessions) != 1 || !sessions[0].Recovered {
		t.Fatalf("replayed sessions: %+v", sessions)
	}
	sessions[0].Recovered = false
	if sessions[0] != liveOpen {
		t.Fatalf("replayed session status diverged:\nlive     %+v\nreplayed %+v", liveOpen, sessions[0])
	}
}

// TestSessionOpenJournalFailureIsInvisible: when the journal refuses a
// session's opening entry while a second open completes concurrently,
// the failed session must never become visible — the listing stays
// well-formed and holds only the acknowledged session.
func TestSessionOpenJournalFailureIsInvisible(t *testing.T) {
	var first atomic.Bool
	entered, secondDone := make(chan struct{}), make(chan struct{})
	hooks := &FaultHooks{JournalAppend: func(e journal.Entry) error {
		if e.Op != journal.OpSessionOpened || !first.CompareAndSwap(false, true) {
			return nil
		}
		close(entered)
		select {
		case <-secondDone:
		case <-time.After(200 * time.Millisecond):
		}
		return errors.New("injected: disk full")
	}}
	_, ts := startServer(t, Config{Journal: journal.NewMem(), Hooks: hooks})

	body, _ := json.Marshal(quickSessionRequest("alu2"))
	failed := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			failed <- 0
			return
		}
		resp.Body.Close()
		failed <- resp.StatusCode
	}()
	<-entered
	second := openSession(t, ts.URL, quickSessionRequest("alu2"))
	close(secondDone)
	if code := <-failed; code != http.StatusServiceUnavailable {
		t.Fatalf("open with failing journal: want 503, got %d", code)
	}

	list := listJSON[SessionStatus](t, ts.URL+"/v1/sessions")
	if len(list) != 1 || list[0].ID != second.ID {
		t.Fatalf("sessions after a failed open: %+v, want only %s", list, second.ID)
	}
}
