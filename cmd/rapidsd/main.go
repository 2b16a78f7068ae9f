// Command rapidsd is the batch-optimization daemon: the rapids/server
// HTTP/JSON service (bounded job queue, a worker pool of
// Circuit.Optimize runs, one per core and admitted by circuit size,
// content-hash result cache, SSE progress streams) behind a plain
// net/http listener with graceful signal-driven drain. The result
// cache is one tiered path: a local LRU of -cache entries, then the
// optional -store directory, each entry sealed once with a sha256
// checksum that every tier re-verifies on read.
//
// Usage:
//
//	rapidsd [-addr :8347] [-opt-workers 0] [-queue N] [-cache N]
//	        [-journal jobs.journal] [-job-timeout 0] [-job-retries 2]
//	        [-store dir] [-peers url,url,...] [-self url]
//	        [-max-sessions 8] [-session-ttl 15m]
//	        [-drain-timeout 30s] [-metrics] [-v]
//
// Submit a job and read it back:
//
//	curl -s localhost:8347/v1/jobs -d '{"generate":"alu2","options":{"strategy":"gsg+GS"}}'
//	curl -s localhost:8347/v1/jobs/<id>
//	curl -sN localhost:8347/v1/jobs/<id>/events        # SSE stream
//	curl -s -X DELETE localhost:8347/v1/jobs/<id>      # cancel, keep best-so-far
//	curl -s localhost:8347/readyz                      # readiness (503 while draining)
//	curl -s localhost:8347/metrics                     # Prometheus text exposition
//
// Open an interactive ECO session, apply an edit, stream the deltas:
//
//	curl -s localhost:8347/v1/sessions -d '{"generate":"alu2"}'
//	curl -s localhost:8347/v1/sessions/<id>/edits \
//	     -d '{"edits":[{"kind":"resize","gate":"n42","size":2}]}'
//	curl -s localhost:8347/v1/sessions/<id>/timing     # current TimingView
//	curl -sN localhost:8347/v1/sessions/<id>/events    # SSE stream of deltas
//	curl -s -X DELETE localhost:8347/v1/sessions/<id>  # close
//
// A session's SSE stream keeps only its 32 latest deltas. A subscriber
// that starts, or resumes with a Last-Event-ID header, before them
// first gets one "resync" frame carrying the current TimingView, then
// only newer deltas. Job streams keep every event and resume the same
// way.
//
// Jobs run -opt-workers at a time, one per core by default. A worker
// loads its job's circuit, then the job waits for admission: its gates
// plus those of every running job must fit within the largest circuit
// the daemon has started, and a larger circuit starts only alone. A
// job's memory tracks its gate count, so concurrent jobs hold no more
// than one largest job did. Admission is first come, first served; the
// wait shows as JobStatus.admission_wait_ns and in the
// rapidsd_admission_* metrics (DESIGN.md §5).
//
// Sessions are capped at -max-sessions (503 with Retry-After past the
// cap) and evicted after -session-ttl idle. With -journal, each
// session's open request and applied edit batches are journaled, and a
// crashed daemon rebuilds every still-open session on restart by
// replaying its edit log (DESIGN.md §5d). In fleet mode sessions are
// replica-local: clients talk to the replica that opened the session.
//
// The /metrics endpoint (on by default; -metrics=false removes it)
// serves every rapidsd_* instrument in Prometheus text format —
// submission outcomes, queue depth and waits, per-attempt run
// durations, retry/panic/timeout counters, cache and journal
// accounting, and per-phase optimizer timings. DESIGN.md §5b documents
// the taxonomy.
//
// With -journal, every job transition is appended to the named file
// and replayed on the next start: jobs accepted before a crash are
// re-run (deterministically, so results are bit-identical) or reborn
// terminal with their recorded results. -job-timeout bounds each
// optimization attempt; timed-out and panicked attempts retry up to
// -job-retries times with exponential backoff.
//
// Fleet mode (DESIGN.md §5c): -store names a directory used as the
// shared result tier behind the local one — N replicas pointed at the
// same directory dedupe each other's finished runs (a lookup reads the
// local tier, then the store, promoting a store hit locally; a finished
// run is written to both). -peers
// lists every replica's base URL (this one included) and -self
// identifies this replica in that list; each submission's content key
// is consistent-hashed onto one owner, and non-owners transparently
// proxy the submission, status polls, cancel, and the SSE stream to
// it. Store failures degrade to local-tier-only operation (visible in
// /healthz and rapidsd_store_degraded_total) without failing jobs or
// flipping /readyz.
//
// On SIGINT/SIGTERM the daemon flips /readyz to 503, stops accepting
// work, drains queued and running jobs, and — past -drain-timeout —
// cancels stragglers, which finish with best-so-far results under the
// facade's anytime contract. See DESIGN.md §5 for the service
// architecture and §5a for the failure model.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/rapids/server"
	"repro/rapids/server/journal"
	"repro/rapids/server/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8347", "listen address (host:port; port 0 picks a free port)")
		workers    = flag.Int("opt-workers", 0, "concurrent optimization jobs (0 = GOMAXPROCS, one per core); a loaded job waits until its gates plus those of every running job fit within the largest circuit started so far, and each run parallelizes its scoring across GOMAXPROCS")
		queue      = flag.Int("queue", 16, "job queue capacity; a full queue rejects submissions with 503")
		cache      = flag.Int("cache", 64, "result cache entries (negative disables caching)")
		jpath      = flag.String("journal", "", "persistent job journal file; replayed on start so accepted jobs survive a crash (empty disables)")
		jobTimeout = flag.Duration("job-timeout", 0, "per-attempt wall-clock bound for each job (0 = none); expiry retries like any transient failure")
		jobRetries = flag.Int("job-retries", 2, "automatic retries after a transient failure (worker panic, job timeout); negative disables")
		storeDir   = flag.String("store", "", "shared result-store directory; replicas pointed at the same directory dedupe finished runs (empty disables)")
		peers      = flag.String("peers", "", "comma-separated base URLs of every fleet replica, this one included; enables consistent-hash job routing (empty disables)")
		self       = flag.String("self", "", "this replica's base URL, matching one -peers entry (required with -peers)")
		maxSess    = flag.Int("max-sessions", 8, "concurrently open ECO sessions; past the cap POST /v1/sessions gets 503 (negative removes the cap)")
		sessTTL    = flag.Duration("session-ttl", 15*time.Minute, "evict ECO sessions idle past this (negative disables eviction)")
		drain      = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on shutdown; running jobs are cancelled past it")
		metricsOn  = flag.Bool("metrics", true, "serve the Prometheus text exposition at GET /metrics")
		verbose    = flag.Bool("v", false, "log job life-cycle transitions")
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("rapidsd: ")

	cfg := server.Config{
		Workers: *workers, QueueCap: *queue, CacheCap: *cache,
		JobTimeout: *jobTimeout, MaxRetries: *jobRetries,
		MaxSessions: *maxSess, SessionTTL: *sessTTL,
		DisableMetrics: !*metricsOn,
	}
	if *jobRetries == 0 {
		cfg.MaxRetries = -1 // flag 0 means "no retries"; Config 0 means default
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	if *jpath != "" {
		jnl, err := journal.OpenFile(*jpath)
		if err != nil {
			log.Fatalf("journal: %v", err)
		}
		defer jnl.Close()
		cfg.Journal = jnl
		log.Printf("journal at %s", *jpath)
	}
	if *storeDir != "" {
		st, err := store.OpenDir(*storeDir)
		if err != nil {
			log.Fatalf("store: %v", err)
		}
		defer st.Close()
		cfg.Store = st
		log.Printf("shared result store at %s", *storeDir)
	}
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Peers = append(cfg.Peers, p)
			}
		}
		cfg.SelfURL = *self
		log.Printf("fleet of %d replicas, self %s", len(cfg.Peers), *self)
	} else if *self != "" {
		log.Fatalf("-self requires -peers")
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatalf("server: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	// The parseable line smoke tests and scripts key on; with port 0
	// it is the only way to learn the bound address.
	log.Printf("listening on %s", ln.Addr())

	httpSrv := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("signal received, draining (budget %s)", *drain)

	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the job queue first — srv.Shutdown flips /readyz to 503
	// immediately and rejects new submissions, while the listener keeps
	// serving status polls and SSE streams for the jobs being drained.
	drainErr := srv.Shutdown(dctx)
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	if drainErr != nil {
		log.Printf("drain incomplete: %v (running jobs cancelled, best-so-far results kept)", drainErr)
		fmt.Fprintln(os.Stderr, "rapidsd: stopped")
		os.Exit(1)
	}
	log.Printf("drained, bye")
}
