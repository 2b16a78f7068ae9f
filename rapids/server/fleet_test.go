package server

// Fleet tests (DESIGN.md §5c): multiple in-process replicas over a
// shared result store, with and without consistent-hash routing. The
// load-bearing properties — cross-replica determinism, dedupe through
// the store, one-hop forwarding with typed errors, Retry-After
// passthrough, and store-degraded fallback — are all meant to run
// under -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/rapids"
	"repro/rapids/server/router"
	"repro/rapids/server/store"
)

// swapHandler lets a httptest.Server exist before the *Server it
// serves: fleet replicas need every peer's URL at construction time,
// so the listeners come up first and the handlers are swapped in once
// New can be called with the full membership.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (sh *swapHandler) set(h http.Handler) {
	sh.mu.Lock()
	sh.h = h
	sh.mu.Unlock()
}

func (sh *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sh.mu.RLock()
	h := sh.h
	sh.mu.RUnlock()
	if h == nil {
		http.Error(w, "replica not up", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// startFleet brings up n replicas over one shared store, optionally
// ring-routed. configure (nil ok) can adjust each replica's Config
// before construction.
func startFleet(t *testing.T, n int, routed bool, st store.Store, configure func(i int, cfg *Config)) ([]string, []*Server, []*httptest.Server) {
	t.Helper()
	handlers := make([]*swapHandler, n)
	urls := make([]string, n)
	tss := make([]*httptest.Server, n)
	for i := range handlers {
		handlers[i] = &swapHandler{}
		tss[i] = httptest.NewServer(handlers[i])
		urls[i] = tss[i].URL
	}
	servers := make([]*Server, n)
	for i := range servers {
		cfg := Config{Store: st}
		if routed {
			cfg.Peers = urls
			cfg.SelfURL = urls[i]
		}
		if configure != nil {
			configure(i, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = s
		handlers[i].set(s)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, s := range servers {
			s.Shutdown(ctx)
		}
		for _, ts := range tss {
			ts.Close()
		}
	})
	return urls, servers, tss
}

// fleetKey computes the content key a fleet routes a request by.
func fleetKey(t *testing.T, req JobRequest) string {
	t.Helper()
	format, err := rapids.ParseFormat(req.Format)
	if err != nil {
		t.Fatal(err)
	}
	return cacheKey(req, format)
}

// ownedBy finds a quick request the given replica owns, varying the
// placement seed until the ring agrees.
func ownedBy(t *testing.T, ring *router.Ring, owner, bench string) JobRequest {
	t.Helper()
	for seed := int64(1); seed < 1000; seed++ {
		req := quickRequest(bench)
		req.Place.Seed = seed
		if ring.Owner(fleetKey(t, req)) == owner {
			return req
		}
	}
	t.Fatalf("no %s placement seed in 1..1000 hashes to %s", bench, owner)
	return JobRequest{}
}

// TestFleetDeterminismAcrossReplicas: the same spec submitted to every
// replica of a 3-replica fleet returns byte-identical Results matching
// the direct facade oracle, the optimizer runs exactly once fleet-wide
// per spec, and the summed metrics close under the reconciliation
// identity. Both fleet shapes are covered: shared store without
// routing (dedupe via store hits) and the full ring-routed fleet
// (dedupe via the owner's cache).
func TestFleetDeterminismAcrossReplicas(t *testing.T) {
	benches := []string{"alu2", "c432"}
	for _, tc := range []struct {
		name   string
		routed bool
	}{
		{"shared-store-only", false},
		{"routed", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			urls, _, _ := startFleet(t, 3, tc.routed, store.NewMem(64), nil)
			for _, bench := range benches {
				req := quickRequest(bench)
				oracle := directRun(t, req)
				var first []byte
				for k, url := range urls {
					st, code := submit(t, url, req)
					if code != http.StatusOK && code != http.StatusAccepted {
						t.Fatalf("%s via replica %d: status %d", bench, k, code)
					}
					final := waitTerminal(t, url, st.ID)
					if final.State != StateDone || final.Result == nil {
						t.Fatalf("%s via replica %d: %+v", bench, k, final)
					}
					if k > 0 && !final.Cached {
						t.Errorf("%s via replica %d: re-ran instead of hitting cache/store", bench, k)
					}
					if !sameResult(oracle, final.Result) {
						t.Errorf("%s via replica %d: result diverged from direct run", bench, k)
					}
					b, err := json.Marshal(final.Result)
					if err != nil {
						t.Fatal(err)
					}
					if k == 0 {
						first = b
					} else if !bytes.Equal(b, first) {
						t.Errorf("%s via replica %d: result bytes differ from replica 0's", bench, k)
					}
				}
			}

			// Fleet-wide accounting, from the replicas' own /metrics:
			// one optimizer run per spec, every duplicate a hit, and the
			// summed reconciliation identity intact.
			var attempts, accepted, cacheHits, storeHits, in, out float64
			for _, url := range urls {
				m := scrape(t, url)
				attempts += m["rapidsd_job_attempts_total"]
				accepted += m[`rapidsd_submissions_total{outcome="accepted"}`]
				cacheHits += m[`rapidsd_submissions_total{outcome="cache_hit"}`]
				storeHits += m[`rapidsd_submissions_total{outcome="store_hit"}`]
				for _, o := range []string{"accepted", "cache_hit", "store_hit"} {
					in += m[`rapidsd_submissions_total{outcome="`+o+`"}`]
				}
				for _, d := range []string{"reborn", "requeued"} {
					in += m[`rapidsd_journal_replayed_jobs_total{disposition="`+d+`"}`]
				}
				for _, st := range []string{StateDone, StateCanceled, StateFailed} {
					out += m[`rapidsd_jobs_completed_total{state="`+st+`"}`]
				}
				out += m["rapidsd_queue_depth"] + m["rapidsd_workers_busy"]
			}
			specs, dups := float64(len(benches)), float64(len(benches)*2)
			if attempts != specs {
				t.Errorf("fleet ran the optimizer %.0f times for %.0f specs", attempts, specs)
			}
			if accepted != specs {
				t.Errorf("submissions{accepted} = %.0f fleet-wide, want %.0f", accepted, specs)
			}
			if tc.routed {
				// Every duplicate lands on the owner and hits its LRU.
				if cacheHits != dups {
					t.Errorf("routed fleet: cache_hit = %.0f, want %.0f (store_hit %.0f)", cacheHits, dups, storeHits)
				}
			} else {
				// Duplicates go to replicas that never ran the spec: only
				// the shared store can serve them.
				if storeHits != dups {
					t.Errorf("store-only fleet: store_hit = %.0f, want %.0f (cache_hit %.0f)", storeHits, dups, cacheHits)
				}
			}
			if in != out {
				t.Errorf("fleet identity broken: submissions+replayed = %.0f, completions+in-flight = %.0f", in, out)
			}
		})
	}
}

// TestFleetRoutingAccounting: every submission decision is counted
// under rapidsd_routed_total with the expected disposition split — per
// spec, one replica serves (local or received) and the others forward.
func TestFleetRoutingAccounting(t *testing.T) {
	urls, _, _ := startFleet(t, 3, true, store.NewMem(64), nil)
	req := quickRequest("alu2")
	for k, url := range urls {
		st, code := submit(t, url, req)
		if code != http.StatusOK && code != http.StatusAccepted {
			t.Fatalf("replica %d: status %d", k, code)
		}
		waitTerminal(t, url, st.ID)
	}
	var local, received, forwarded float64
	for _, url := range urls {
		m := scrape(t, url)
		local += m[`rapidsd_routed_total{disposition="local"}`]
		received += m[`rapidsd_routed_total{disposition="received"}`]
		forwarded += m[`rapidsd_routed_total{disposition="forwarded"}`]
	}
	// 3 submissions of one key: its owner got one directly (local) and
	// two by proxy (received); the two non-owners forwarded one each.
	if local != 1 || received != 2 || forwarded != 2 {
		t.Fatalf("routed split local=%.0f received=%.0f forwarded=%.0f, want 1/2/2", local, received, forwarded)
	}
}

// TestFleetForwardedJobLifecycle: a client that submitted through a
// non-owner keeps using that replica for the rest of the job's life —
// status polls, the SSE stream, and cancel all relay to the owner.
func TestFleetForwardedJobLifecycle(t *testing.T) {
	urls, _, _ := startFleet(t, 2, true, store.NewMem(64), nil)
	ring, err := router.New(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := quickRequest("c432")
	owner := ring.Owner(fleetKey(t, req))
	proxy := urls[0]
	if proxy == owner {
		proxy = urls[1]
	}

	st, code := submit(t, proxy, req)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit via non-owner: status %d", code)
	}
	if st.ID == "" {
		t.Fatal("submit via non-owner returned no job id")
	}
	final := waitTerminal(t, proxy, st.ID)
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("forwarded job did not finish: %+v", final)
	}

	// The SSE stream through the proxy replays the owner's run and
	// terminates with the end event.
	resp, err := http.Get(proxy + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied SSE: status %d", resp.StatusCode)
	}
	events := readSSE(t, resp.Body, nil)
	if len(events) == 0 || events[len(events)-1].name != "end" {
		t.Fatalf("proxied SSE stream did not end cleanly: %d events", len(events))
	}
	// A resume through the proxy carries Last-Event-ID to the owner.
	if resumed := readSSE(t, subscribe(t, proxy+"/v1/jobs/"+st.ID+"/events", "0"), nil); !reflect.DeepEqual(resumed, events[1:]) {
		t.Fatalf("proxied resume after frame 0:\ngot  %+v\nwant %+v", resumed, events[1:])
	}

	// Cancel relays too: the job is already terminal, so the owner's
	// 409 job_already_terminal comes back through the proxy.
	hreq, _ := http.NewRequest(http.MethodDelete, proxy+"/v1/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var eb ErrorBody
	if err := json.NewDecoder(dresp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusConflict || eb.Code != CodeJobAlreadyTerminal {
		t.Fatalf("proxied cancel of a done job: status %d code %q", dresp.StatusCode, eb.Code)
	}
}

// TestFleetScatterRelearn: a replica that restarts loses its
// forwarded-job map; a job-scoped request for an id it proxied before
// the restart must relearn the owner with a one-hop scatter probe
// instead of answering 404.
func TestFleetScatterRelearn(t *testing.T) {
	urls, servers, _ := startFleet(t, 2, true, store.NewMem(64), nil)
	ring, err := router.New(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := quickRequest("c432")
	owner := ring.Owner(fleetKey(t, req))
	proxyIdx := 0
	if urls[0] == owner {
		proxyIdx = 1
	}
	proxy := urls[proxyIdx]

	st, code := submit(t, proxy, req)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit via non-owner: status %d", code)
	}
	waitTerminal(t, proxy, st.ID)

	// Simulate the proxy restarting: its id->owner map evaporates.
	ps := servers[proxyIdx]
	ps.mu.Lock()
	ps.forwarded = make(map[string]string)
	ps.mu.Unlock()

	final := getStatus(t, proxy, st.ID)
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("scatter relearn failed: %+v", final)
	}
	// And an id that exists nowhere is still an honest 404, not a loop.
	resp, err := http.Get(proxy + "/v1/jobs/j999-deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id fleet-wide: status %d, want 404", resp.StatusCode)
	}
}

// TestFleetNotOwner: a *forwarded* submission for a key the receiver
// does not own is refused with the typed 421 — peer lists disagree,
// and bouncing the job onward would loop.
func TestFleetNotOwner(t *testing.T) {
	urls, _, _ := startFleet(t, 2, true, store.NewMem(64), nil)
	ring, err := router.New(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := quickRequest("alu2")
	owner := ring.Owner(fleetKey(t, req))
	wrong := urls[0]
	if wrong == owner {
		wrong = urls[1]
	}

	body, _ := json.Marshal(req)
	hreq, _ := http.NewRequest(http.MethodPost, wrong+"/v1/jobs", bytes.NewReader(body))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(forwardedHeader, "http://some-misconfigured-peer")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMisdirectedRequest || eb.Code != CodeNotOwner {
		t.Fatalf("forwarded submission to non-owner: status %d code %q, want 421 %q",
			resp.StatusCode, eb.Code, CodeNotOwner)
	}
}

// TestFleetPeerUnreachable: a dead owner behind a live proxy answers
// the typed 502, not a bare transport error — clients branch on the
// code and ride it out like a restart.
func TestFleetPeerUnreachable(t *testing.T) {
	urls, _, tss := startFleet(t, 2, true, store.NewMem(64), nil)
	ring, err := router.New(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A request owned by replica 1, submitted via replica 0 after
	// replica 1's listener dies.
	req := ownedBy(t, ring, urls[1], "alu2")
	tss[1].Close()

	body, _ := json.Marshal(req)
	resp, err := http.Post(urls[0]+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadGateway || eb.Code != CodePeerUnreachable {
		t.Fatalf("submission for a dead owner: status %d code %q, want 502 %q",
			resp.StatusCode, eb.Code, CodePeerUnreachable)
	}
	m := scrape(t, urls[0])
	if m[`rapidsd_routed_total{disposition="peer_unreachable"}`] == 0 {
		t.Error("routed{peer_unreachable} stayed 0")
	}
}

// TestFleetRetryAfterPassthrough: the owning replica's backpressure —
// 503 with a Retry-After hint — reaches the client byte-for-byte
// through a forwarding replica, so harness backoff works identically
// one hop away.
func TestFleetRetryAfterPassthrough(t *testing.T) {
	release := make(chan struct{})
	hooks := &FaultHooks{BeforeAttempt: func(ctx context.Context, id string, attempt int) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}}
	urls, _, _ := startFleet(t, 2, true, store.NewMem(64), func(i int, cfg *Config) {
		cfg.Workers = 1
		cfg.QueueCap = 1
		cfg.Hooks = hooks
	})
	t.Cleanup(func() { close(release) }) // runs before startFleet's shutdown
	ring, err := router.New(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	owner := urls[1]

	// Fill the owner: one job running (parked in the hook), one queued.
	running := ownedBy(t, ring, owner, "alu2")
	st, code := submit(t, owner, running)
	if code != http.StatusAccepted {
		t.Fatalf("filler 1: status %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, owner, st.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("filler 1 never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	queued := ownedBy(t, ring, owner, "c432")
	if _, code := submit(t, owner, queued); code != http.StatusAccepted {
		t.Fatalf("filler 2: status %d", code)
	}

	// Probe through the non-owner: the owner's 503 and its Retry-After
	// must both survive the hop.
	probe := ownedBy(t, ring, owner, "c499")
	body, _ := json.Marshal(probe)
	resp, err := http.Post(urls[0]+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("probe via proxy: status %d body %s, want 503", resp.StatusCode, b)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After lost in the proxy hop: %q", ra)
	}
}

// TestFleetStoreDegraded: a shared-store outage costs dedupe, not
// availability — jobs keep completing from the local path, the outage
// is counted and visible in /healthz, /readyz stays green, and a
// recovered store self-heals. The chaos seam is store.WithFaults.
func TestFleetStoreDegraded(t *testing.T) {
	var fail atomic.Bool
	outage := func(key string) error {
		if fail.Load() {
			return errors.New("injected store outage")
		}
		return nil
	}
	st := store.WithFaults(store.NewMem(64), &store.Hooks{Get: outage, Put: outage})
	urls, _, _ := startFleet(t, 1, false, st, nil)
	url := urls[0]

	health := func() (status, storeField string, ready bool) {
		t.Helper()
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h struct {
			Status string `json:"status"`
			Store  string `json:"store"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		rresp, err := http.Get(url + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, rresp.Body)
		rresp.Body.Close()
		return h.Status, h.Store, rresp.StatusCode == http.StatusOK
	}

	// Healthy store.
	stA, code := submit(t, url, quickRequest("alu2"))
	if code != http.StatusAccepted {
		t.Fatalf("healthy submit: status %d", code)
	}
	waitTerminal(t, url, stA.ID)
	if _, storeField, ready := health(); storeField != "ok" || !ready {
		t.Fatalf("healthy store: healthz store=%q ready=%v", storeField, ready)
	}

	// Outage: a fresh spec still completes (store Get and Put both
	// fail), and a repeat submission is served by the local LRU.
	fail.Store(true)
	reqB := quickRequest("c432")
	stB, code := submit(t, url, reqB)
	if code != http.StatusAccepted {
		t.Fatalf("degraded submit: status %d", code)
	}
	if final := waitTerminal(t, url, stB.ID); final.State != StateDone {
		t.Fatalf("degraded job: %+v", final)
	}
	if stB2, code := submit(t, url, reqB); code != http.StatusOK || !stB2.Cached {
		t.Fatalf("degraded repeat: status %d cached %v, want LRU hit", code, stB2.Cached)
	}
	_, storeField, ready := health()
	if storeField == "ok" || storeField == "off" {
		t.Fatalf("healthz hides the outage: store=%q", storeField)
	}
	if !ready {
		t.Fatal("readyz went 503 on a store outage; degraded mode must keep serving")
	}
	m := scrape(t, url)
	if m["rapidsd_store_degraded_total"] < 2 {
		t.Fatalf("store_degraded_total = %v, want >= 2 (failed Get and Put)", m["rapidsd_store_degraded_total"])
	}

	// Recovery: the next successful store operation clears the sticky
	// error.
	fail.Store(false)
	stC, code := submit(t, url, quickRequest("c499"))
	if code != http.StatusAccepted {
		t.Fatalf("recovered submit: status %d", code)
	}
	waitTerminal(t, url, stC.ID)
	if _, storeField, _ := health(); storeField != "ok" {
		t.Fatalf("store did not self-heal: healthz store=%q", storeField)
	}
}

// TestFleetSharedDirStore: two replicas sharing a store *directory*
// (the cross-process configuration the fleet smoke test uses with real
// binaries): a result run by one replica is a store hit on the other,
// byte-identical.
func TestFleetSharedDirStore(t *testing.T) {
	dir := t.TempDir()
	stA, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Two servers, two *separate* Dir handles, one directory — no
	// shared in-process state.
	_, tsA := startServer(t, Config{Store: stA})
	_, tsB := startServer(t, Config{Store: stB})

	req := quickRequest("alu2")
	st1, code := submit(t, tsA.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	final1 := waitTerminal(t, tsA.URL, st1.ID)
	if final1.State != StateDone {
		t.Fatalf("first run: %+v", final1)
	}

	st2, code := submit(t, tsB.URL, req)
	if code != http.StatusOK || !st2.Cached {
		t.Fatalf("second replica: status %d cached %v, want a store hit", code, st2.Cached)
	}
	final2 := getStatus(t, tsB.URL, st2.ID)
	b1, _ := json.Marshal(final1.Result)
	b2, _ := json.Marshal(final2.Result)
	if !bytes.Equal(b1, b2) {
		t.Fatal("store round-trip changed the result bytes")
	}
	m := scrape(t, tsB.URL)
	if m[`rapidsd_submissions_total{outcome="store_hit"}`] != 1 {
		t.Fatalf("replica B store_hit = %v, want 1", m[`rapidsd_submissions_total{outcome="store_hit"}`])
	}
	if m["rapidsd_job_attempts_total"] != 0 {
		t.Fatalf("replica B ran the optimizer %v times for a stored spec", m["rapidsd_job_attempts_total"])
	}
}
