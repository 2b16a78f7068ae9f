package harness

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/rapids"
	"repro/rapids/server"
	"repro/rapids/server/store"
)

// lateHandler lets the fleet's listeners come up before the servers
// they front: replica construction needs every peer URL.
type lateHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (lh *lateHandler) set(h http.Handler) {
	lh.mu.Lock()
	lh.h = h
	lh.mu.Unlock()
}

func (lh *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	lh.mu.RLock()
	h := lh.h
	lh.mu.RUnlock()
	if h == nil {
		http.Error(w, "replica not up", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// startTestFleet brings up n in-process replicas over one shared
// store, ring-routed when routed is set.
func startTestFleet(t *testing.T, n int, routed bool, st store.Store) []string {
	t.Helper()
	handlers := make([]*lateHandler, n)
	urls := make([]string, n)
	tss := make([]*httptest.Server, n)
	for i := range handlers {
		handlers[i] = &lateHandler{}
		tss[i] = httptest.NewServer(handlers[i])
		urls[i] = tss[i].URL
	}
	servers := make([]*server.Server, n)
	for i := range servers {
		cfg := server.Config{Store: st}
		if routed {
			cfg.Peers = urls
			cfg.SelfURL = urls[i]
		}
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		handlers[i].set(srv)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, srv := range servers {
			srv.Shutdown(ctx)
		}
		for _, ts := range tss {
			ts.Close()
		}
	})
	return urls
}

// TestRunFleetInProcess: RunFleet against 3 in-process replicas proves
// the fleet contract in both shapes — ring-routed and shared-store-only
// — through FleetReport.Check: byte-identical Results everywhere, at
// most one optimizer run per spec, and the summed reconciliation
// identity. The store-only shape additionally proves the store-hit
// path: a spec's second submission *anywhere* is a shared-store hit.
func TestRunFleetInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes several circuits on 3 replicas")
	}
	verify := 8
	for _, tc := range []struct {
		name   string
		routed bool
	}{
		{"routed", true},
		{"shared-store-only", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			urls := startTestFleet(t, 3, tc.routed, store.NewMem(64))
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			rep, err := RunFleet(ctx, FleetConfig{
				URLs:         urls,
				Benchmarks:   []string{"alu2", "c432"},
				PlaceMoves:   5,
				Spec:         rapids.Spec{Iters: 2, Workers: 1, VerifyRounds: &verify},
				PollInterval: 5 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Check(); err != nil {
				t.Fatal(err)
			}
			if got := len(rep.Rows); got != 2 {
				t.Fatalf("rows: %d, want 2", got)
			}

			attempts := SumSample(rep.Scrapes, "rapidsd_job_attempts_total")
			if attempts != 2 {
				t.Errorf("fleet ran the optimizer %.0f times for 2 specs", attempts)
			}
			storeHits := SumSample(rep.Scrapes, `rapidsd_submissions_total{outcome="store_hit"}`)
			if !tc.routed && storeHits != 4 {
				// 2 specs x 2 duplicate submissions, each to a replica
				// that never ran the spec: only the store can serve them.
				t.Errorf("store-only fleet: store_hit = %.0f fleet-wide, want 4", storeHits)
			}
		})
	}
}

// TestFleetIdentity: the identity checker itself — balanced scrapes
// pass (including across a simulated restart, where one replica's
// counters restart from zero and a journal replay fills the gap), and
// a lost submission is caught.
func TestFleetIdentity(t *testing.T) {
	balanced := []map[string]float64{
		{
			`rapidsd_submissions_total{outcome="accepted"}`:  3,
			`rapidsd_submissions_total{outcome="store_hit"}`: 1,
			`rapidsd_jobs_completed_total{state="done"}`:     4,
		},
		{
			`rapidsd_submissions_total{outcome="cache_hit"}`:            2,
			`rapidsd_journal_replayed_jobs_total{disposition="reborn"}`: 1,
			`rapidsd_jobs_completed_total{state="done"}`:                2,
			`rapidsd_jobs_completed_total{state="failed"}`:              1,
		},
	}
	if err := FleetIdentity(balanced); err != nil {
		t.Fatalf("balanced scrapes rejected: %v", err)
	}
	unbalanced := []map[string]float64{
		{
			`rapidsd_submissions_total{outcome="accepted"}`: 3,
			`rapidsd_jobs_completed_total{state="done"}`:    2,
		},
	}
	if err := FleetIdentity(unbalanced); err == nil {
		t.Fatal("a lost submission went unnoticed")
	}
}
