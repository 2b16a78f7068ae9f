// Package server implements the rapidsd batch-optimization service on
// top of the rapids facade: an HTTP/JSON job API backed by a
// bounded-capacity queue, a worker pool of Circuit.Optimize runs, a
// content-hash result cache, and per-job Server-Sent-Event progress
// streams riding the facade's typed Event feed.
//
// Endpoints:
//
//	POST   /v1/jobs             submit (202; 200 on a cache hit; 503 when the queue is full or the server drains)
//	GET    /v1/jobs             list all jobs, submission order
//	GET    /v1/jobs/{id}        JobStatus, including the rapids.Result once finished
//	GET    /v1/jobs/{id}/events SSE stream of the run's typed events, replayed from the start or past Last-Event-ID
//	DELETE /v1/jobs/{id}        cancel: best-so-far result (anytime contract); 409 once terminal
//	POST   /v1/sessions         open an interactive ECO session (see session.go for the session routes)
//	GET    /healthz             liveness, queue depths, goroutine count
//	GET    /readyz              readiness: 503 while draining, journal-broken, or queue at high water
//
// Crash safety: with Config.Journal set, every job transition is
// appended to a persistent journal and New replays it on startup —
// terminal jobs are reborn with their results (re-seeding the cache),
// live jobs are re-enqueued and re-run. Because Optimize is
// deterministic per seed, a replayed run completes bit-identical to
// the one the crash interrupted. Worker panics are confined to the
// attempt, and transient failures (panic, job timeout) retry with
// exponential backoff.
//
// DESIGN.md §5 documents the architecture — backpressure, cancellation,
// drain, and the cache-key determinism guarantee. cmd/rapidsd is the
// daemon front end; cmd/bench's service-mixed workload is the load
// test.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/rapids"
	"repro/rapids/server/journal"
	"repro/rapids/server/router"
	"repro/rapids/server/store"
)

// maxBody bounds a POST /v1/jobs payload (inline netlists included).
const maxBody = 16 << 20

// Config sizes a Server.
type Config struct {
	// Workers is the number of jobs run at once (default GOMAXPROCS,
	// one per core). Each run still parallelizes its move scoring
	// across GOMAXPROCS. A worker loads its job's circuit, then waits
	// for admission by circuit size before placing it: the job's gates
	// plus those of every running job must fit within the largest
	// circuit the server has started, so concurrent jobs never hold
	// more memory than one largest job did (DESIGN.md §5).
	Workers int
	// QueueCap bounds the jobs waiting for a worker (default 16). A
	// full queue rejects POST /v1/jobs with 503 Service Unavailable
	// and a Retry-After header — backpressure, not buffering. The cap
	// binds submissions only: journal recovery and automatic retries
	// re-enqueue past it rather than lose an accepted job.
	QueueCap int
	// CacheCap bounds the local result tier, an LRU store.Mem of that
	// many entries (default 64); negative means no local tier.
	CacheCap int
	// Journal, when non-nil, records every job transition and is
	// replayed by New: accepted jobs survive a crash. The server does
	// not own the journal — the caller opens and closes it.
	Journal journal.Journal
	// Store, when non-nil, is the fleet-shared result tier behind the
	// local one: lookups read the tiers in order (a hit here is
	// promoted into the local tier) and every finished run is written
	// to both, so N replicas dedupe each other's work. The server does
	// not own the store — the caller opens and closes it. Store
	// failures degrade to local-tier-only operation (counted in
	// rapidsd_store_degraded_total, reported by /healthz); they never
	// fail jobs or flip /readyz.
	Store store.Store
	// Peers, when non-empty, enables replica-aware routing: the list of
	// every replica's base URL (this one included). Each submission's
	// content key is consistent-hashed onto one owner; non-owners proxy
	// the submission (and later job-scoped requests) to it, so the
	// cache, journal, and optimization run for a spec live on exactly
	// one replica. All replicas must be configured with the same
	// membership (order may differ).
	Peers []string
	// SelfURL identifies this replica in Peers — required when Peers is
	// set, and must match one entry exactly (after trailing-slash
	// trimming).
	SelfURL string
	// PeerClient is the HTTP client for replica-to-replica forwarding;
	// nil uses http.DefaultClient. It must not set Client.Timeout:
	// relayed SSE streams are long-lived (cancellation rides the
	// inbound request's context instead).
	PeerClient *http.Client
	// MaxSessions caps concurrently open ECO sessions (default 8; a
	// negative value removes the cap). Each open session pins a live
	// circuit and an incremental timer in memory, so the cap is
	// backpressure: POST /v1/sessions past it gets 503 with Retry-After.
	MaxSessions int
	// SessionTTL evicts sessions idle past it (default 15m; negative
	// disables eviction). A background sweeper closes them — reason
	// "evicted" — so an abandoned client cannot pin circuits forever.
	SessionTTL time.Duration
	// JobTimeout bounds each optimization attempt's wall clock (0 =
	// none). A request's own options.timeout_ms tightens but never
	// loosens it. Expiry is a transient failure: the attempt stops at
	// the next phase boundary and is retried.
	JobTimeout time.Duration
	// MaxRetries caps automatic re-runs after a transient failure
	// (worker panic, job timeout). 0 means the default of 2; negative
	// disables retries.
	MaxRetries int
	// RetryBackoff is the first retry's delay (default 100ms); each
	// further retry doubles it, plus jitter.
	RetryBackoff time.Duration
	// DisableMetrics removes the GET /metrics route. The server still
	// instruments itself (the registry is cheap and the harness reads
	// it through Metrics), but the exposition endpoint disappears.
	DisableMetrics bool
	// Hooks injects failures for the chaos tests; nil in production.
	Hooks *FaultHooks
	// Logf, when non-nil, receives one line per job life-cycle
	// transition (log.Printf-shaped).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap == 0 {
		c.QueueCap = 16
	}
	if c.CacheCap == 0 {
		c.CacheCap = 64
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 8
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	return c
}

// maxAttempts is the per-job attempt budget (first run + retries).
func (c Config) maxAttempts() int {
	if c.MaxRetries < 0 {
		return 1
	}
	return 1 + c.MaxRetries
}

// Server is the batch-optimization service. Create one with New, serve
// it as an http.Handler, and stop it with Shutdown. All methods are
// safe for concurrent use.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *serverMetrics
	queue   *jobQueue
	admit   *admission     // the size gate between load and place (admit.go)
	local   *store.Mem     // the local result tier; nil when CacheCap < 0
	tiers   []tier         // result tiers in lookup order (cache.go)
	wg      sync.WaitGroup // workers
	retryWG sync.WaitGroup // pending retry timers
	drainc  chan struct{}  // closed when Shutdown begins
	retries atomic.Int64   // total retry attempts scheduled

	ring *router.Ring // nil outside fleet mode

	// mu guards the tables, the id sequence, and the draining flag;
	// admission (lifecycle.go) holds it from the capacity check through
	// the journaled open to registration.
	mu        sync.Mutex
	jobs      table[*job]
	sessions  table[*liveSession] // ECO sessions (session.go)
	forwarded map[string]string   // job id -> owning replica URL (proxied submissions)
	seq       int
	draining  bool
	// sessPending reserves capacity for session opens still building
	// their circuit, so concurrent opens cannot overshoot MaxSessions.
	sessPending int

	jobKind, sessKind kind

	// smu guards the sticky shared-store error (healthz reporting
	// only; the store never gates readiness).
	smu      sync.Mutex
	storeErr error

	// jmu guards the sticky journal-append error separately from s.mu:
	// appends happen while s.mu is held (submit) and while it is not
	// (workers), and readiness must never block on either.
	jmu        sync.Mutex
	journalErr error
}

// New builds a Server, replays its journal (if Config.Journal is set),
// and starts the worker pool. A replay error — a corrupt journal, an
// unreadable file — fails construction rather than silently dropping
// accepted jobs.
func New(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

// newServer builds the Server without starting workers (tests use this
// to observe queue states deterministically).
func newServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	m := newServerMetrics()
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		metrics:   m,
		queue:     newJobQueue(m.queueDepth, m.queueHighWater),
		admit:     newAdmission(m.admissionWaiting, m.admittedGates, m.admissionMark),
		drainc:    make(chan struct{}),
		forwarded: make(map[string]string),
		jobKind: kind{
			noun: "job", prefix: "j", opened: journal.OpAccepted, rejected: m.submissions,
			invalid: outcomeInvalidReq, draining: outcomeDraining, full: outcomeQueueFull, journalFailed: outcomeJournalError,
		},
		sessKind: kind{
			noun: "session", prefix: "s", opened: journal.OpSessionOpened, rejected: m.sessionsRejected,
			invalid: sessRejectInvalid, draining: sessRejectDraining, full: sessRejectCapacity, journalFailed: sessRejectJournal,
		},
	}
	s.jobs.mu, s.sessions.mu = &s.mu, &s.mu
	s.local, s.tiers = newTiers(cfg, m)
	if len(cfg.Peers) > 0 {
		peers := make([]string, len(cfg.Peers))
		for i, p := range cfg.Peers {
			peers[i] = strings.TrimRight(p, "/")
		}
		s.cfg.Peers = peers
		s.cfg.SelfURL = strings.TrimRight(cfg.SelfURL, "/")
		if s.cfg.SelfURL == "" {
			return nil, fmt.Errorf("server: Config.SelfURL is required with Peers")
		}
		ring, err := router.New(peers, 0)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		if !ring.Contains(s.cfg.SelfURL) {
			return nil, fmt.Errorf("server: SelfURL %q is not in Peers %v", s.cfg.SelfURL, peers)
		}
		s.ring = ring
	}
	m.workers.Set(int64(cfg.Workers))
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionOpen)
	s.mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionStatus)
	s.mux.HandleFunc("POST /v1/sessions/{id}/edits", s.handleSessionEdits)
	s.mux.HandleFunc("GET /v1/sessions/{id}/timing", s.handleSessionTiming)
	s.mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleSessionEvents)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionClose)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	if !cfg.DisableMetrics {
		s.mux.Handle("GET /metrics", m.reg.Handler())
	}
	if err := s.replayJournal(); err != nil {
		return nil, fmt.Errorf("server: journal replay: %w", err)
	}
	return s, nil
}

func (s *Server) start() {
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	if s.cfg.SessionTTL > 0 {
		s.wg.Add(1)
		go s.sessionSweeper()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// appendJournal records one transition. The hook (if any) runs first
// and its error counts as a failed append. The latest append outcome is
// kept as the sticky journal error readiness reports — a later
// successful append clears it, so a transiently full disk self-heals.
func (s *Server) appendJournal(e journal.Entry) error {
	if s.cfg.Journal == nil {
		return nil
	}
	e.Time = time.Now().UTC()
	var err error
	if h := s.cfg.Hooks; h != nil && h.JournalAppend != nil {
		err = h.JournalAppend(e)
	}
	if err == nil {
		err = s.cfg.Journal.Append(e)
	}
	s.jmu.Lock()
	s.journalErr = err
	s.jmu.Unlock()
	if err != nil {
		s.metrics.journalAppendFailures.Inc()
		s.logf("journal: append %s for job %s failed: %v", e.Op, e.JobID, err)
	} else {
		s.metrics.journalAppends.Inc()
	}
	return err
}

// Metrics returns the server's metrics registry — the same one GET
// /metrics serves. Embedders can merge it into their own exposition or
// read instruments directly in tests.
func (s *Server) Metrics() *metrics.Registry { return s.metrics.reg }

func (s *Server) journalStatus() error {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return s.journalErr
}

// Shutdown gracefully drains the server: readiness flips to 503 and new
// submissions are rejected immediately, pending retries are abandoned
// (journaled failed), queued and running jobs keep running, and
// Shutdown returns once every worker has finished. If ctx expires
// first, all unfinished jobs are cancelled — the facade's anytime
// contract turns them into best-so-far canceled results — the workers
// are still waited for (they stop at the next phase boundary), and
// ctx.Err() is returned. Shutdown is idempotent; later calls return an
// error without waiting. The journal is left open for the caller.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.draining = true
	close(s.drainc) // submits are guarded by s.mu + draining
	s.mu.Unlock()
	s.logf("server: draining (%d queued)", s.queue.len())

	// Open ECO sessions are closed (reason "drain"): the journal holds
	// their closes, so a restart rebuilds nothing.
	s.drainSessions()

	// Retry timers either fire into the queue or abandon on drainc;
	// wait them out before closing the queue so no push is refused.
	s.retryWG.Wait()
	s.queue.close()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		s.logf("server: drained")
		return nil
	case <-ctx.Done():
		for _, j := range s.jobs.all() {
			j.cancel()
		}
		<-done
		s.logf("server: drain deadline expired, running jobs cancelled")
		return ctx.Err()
	}
}

// worker runs queued jobs until the queue is closed and drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.run(j)
	}
}

// run executes one attempt of a job through the facade and classifies
// the outcome: success, cancel, permanent failure, or a transient
// failure (panic, timeout) that earns a retry. Each attempt reloads
// and re-places the circuit, so a retried or crash-recovered run is a
// fresh deterministic run — bit-identical to an undisturbed one.
// Between load and place the job waits for admission by its gate count
// (admit.go); it holds its admitted gates until the attempt returns.
func (s *Server) run(j *job) {
	if j.ctx.Err() != nil {
		s.finishJob(j, StateCanceled, nil, "canceled before start")
		return
	}
	s.metrics.queueWait.ObserveDuration(j.beginRun())
	s.metrics.workersBusy.Inc()
	defer s.metrics.workersBusy.Dec()

	attempt := j.nextAttempt()
	s.metrics.attempts.Inc()
	s.appendJournal(journal.Entry{Op: journal.OpStarted, JobID: j.id, Key: j.key, Seq: j.seq, Attempt: attempt})

	c, err := loadCircuit(j.req)
	if err != nil {
		s.finishJob(j, StateFailed, nil, err.Error())
		return
	}

	// Capture the identity the status endpoint reports before the
	// optimizer runs: inverting swaps may add cells, and a later cache
	// hit must mirror the original job's status exactly.
	circuit, gates := c.Name(), c.Gates()
	j.setLoaded(circuit, gates)
	waitStart := time.Now()
	admitted, waited := s.admit.admit(j.ctx, gates)
	if waited {
		wait := time.Since(waitStart)
		j.admitted(wait)
		s.metrics.admissionWait.ObserveDuration(wait)
	}
	if !admitted {
		s.finishJob(j, StateCanceled, nil, "canceled while waiting for admission")
		s.logf("job %s: canceled while waiting for admission", j.id)
		return
	}
	j.setRunning()
	s.logf("job %s: running %s (%d gates), attempt %d", j.id, circuit, gates, attempt)

	placeCircuit(c, j.req)
	runStart := time.Now()
	res, err, timedOut := s.attempt(j, c, attempt)
	s.metrics.runSeconds.ObserveDuration(time.Since(runStart))
	s.admit.release(gates)
	var pe *WorkerPanicError
	switch {
	case err == nil:
		s.publishResult(j.key, circuit, gates, res)
		s.finishJob(j, StateDone, res, "")
		s.logf("job %s: done, delay %.3f -> %.3f ns", j.id, res.InitialDelayNS, res.FinalDelayNS)
	case errors.As(err, &pe):
		s.metrics.workerPanics.Inc()
		s.retryOrFail(j, err)
	case timedOut:
		s.metrics.jobTimeouts.Inc()
		s.retryOrFail(j, fmt.Errorf("job %s attempt %d: %w after %v",
			j.id, attempt, context.DeadlineExceeded, s.jobDeadline(j)))
	case res != nil && res.Interrupted:
		// DELETE or drain-deadline cancellation: the circuit holds the
		// best-so-far network and res describes it (never cached — the
		// run did not converge).
		s.finishJob(j, StateCanceled, res, err.Error())
		s.logf("job %s: canceled, best-so-far delay %.3f ns", j.id, res.FinalDelayNS)
	default:
		// Verification failure or optimizer error.
		s.finishJob(j, StateFailed, res, err.Error())
		s.logf("job %s: failed: %v", j.id, err)
	}
}

// attempt runs one optimization attempt with panic confinement and the
// job deadline applied. timedOut reports an expiry of the *attempt's*
// deadline specifically: j.ctx is still clean, so this was not a DELETE
// or a drain cancellation.
func (s *Server) attempt(j *job, c *rapids.Circuit, attempt int) (res *rapids.Result, err error, timedOut bool) {
	actx := j.ctx
	if d := s.jobDeadline(j); d > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(j.ctx, d)
		defer cancel()
	}
	func() {
		defer func() {
			if v := recover(); v != nil {
				res, err = nil, &WorkerPanicError{JobID: j.id, Attempt: attempt, Value: fmt.Sprint(v)}
			}
		}()
		if h := s.cfg.Hooks; h != nil && h.BeforeAttempt != nil {
			h.BeforeAttempt(actx, j.id, attempt)
		}
		// The server owns the deadline (applied to actx above), so the
		// request's own timeout_ms is stripped from the option set.
		reqOpts := j.req.Options
		reqOpts.TimeoutMS = 0
		opts := append(reqOpts.Options(), rapids.WithProgress(func(ev rapids.Event) {
			s.metrics.observeEvent(ev)
			j.events.append(ev)
		}))
		res, err = c.Optimize(actx, opts...)
	}()
	timedOut = errors.Is(actx.Err(), context.DeadlineExceeded) && j.ctx.Err() == nil
	return res, err, timedOut
}

// jobDeadline is the effective per-attempt wall-clock bound: the
// tighter of the server's JobTimeout and the request's timeout_ms.
func (s *Server) jobDeadline(j *job) time.Duration {
	d := s.cfg.JobTimeout
	if ms := j.req.Options.TimeoutMS; ms > 0 {
		if r := time.Duration(ms) * time.Millisecond; d <= 0 || r < d {
			d = r
		}
	}
	return d
}

// retryOrFail handles a transient failure: retry with exponential
// backoff and jitter while attempts remain and the server is not
// draining; otherwise fail the job for good.
func (s *Server) retryOrFail(j *job, cause error) {
	attempt := j.attempts()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.finishJob(j, StateFailed, nil, cause.Error()+" (retry abandoned: server draining)")
		return
	}
	if attempt >= s.cfg.maxAttempts() {
		s.finishJob(j, StateFailed, nil, fmt.Sprintf("%v (gave up after %d attempts)", cause, attempt))
		return
	}
	s.appendJournal(journal.Entry{Op: journal.OpRetried, JobID: j.id, Key: j.key, Seq: j.seq, Attempt: attempt, Error: cause.Error()})
	j.setQueued()
	s.retries.Add(1)
	s.metrics.retries.Inc()
	backoff := retryDelay(s.cfg.RetryBackoff, attempt)
	s.logf("job %s: transient failure (%v), retry %d/%d in %v",
		j.id, cause, attempt, s.cfg.maxAttempts()-1, backoff)
	s.retryWG.Add(1)
	go func() {
		defer s.retryWG.Done()
		t := time.NewTimer(backoff)
		defer t.Stop()
		select {
		case <-t.C:
		case <-j.ctx.Done():
			s.finishJob(j, StateCanceled, nil, "canceled while waiting to retry")
			return
		case <-s.drainc:
			s.finishJob(j, StateFailed, nil, cause.Error()+" (retry abandoned: server draining)")
			return
		}
		if !s.queue.push(j) {
			s.finishJob(j, StateFailed, nil, cause.Error()+" (retry abandoned: server draining)")
		}
	}()
}

// maxRetryBackoff caps the exponential retry backoff (before jitter).
const maxRetryBackoff = 30 * time.Second

// retryDelay computes the backoff before the retry that follows failed
// attempt number attempt (1-based): base doubled per prior attempt,
// saturating at maxRetryBackoff, plus up to 50% jitter. The doubling
// is a saturating loop, not a shift — base << (attempt-1) overflows
// time.Duration once attempt exceeds ~40 (a perfectly legal MaxRetries
// setting), going negative, skipping the cap, and panicking in
// rand.Int63n.
func retryDelay(base time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < maxRetryBackoff; i++ {
		d *= 2
	}
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// finishJob moves a job to a terminal state and journals the
// transition, result included — replay can then rebirth the job
// without re-running it.
func (s *Server) finishJob(j *job, state string, res *rapids.Result, errmsg string) {
	j.finish(state, res, errmsg)
	s.metrics.jobsCompleted.With(state).Inc()
	st := j.status()
	e := journal.Entry{
		JobID: j.id, Key: j.key, Seq: j.seq, Attempt: st.Attempts,
		Error: errmsg, Circuit: st.Circuit, Gates: st.Gates, Cached: st.Cached,
		QueuedFor: st.QueuedFor, RanFor: st.RanFor, AdmissionWait: st.AdmissionWait,
	}
	switch state {
	case StateDone:
		e.Op = journal.OpDone
	case StateCanceled:
		e.Op = journal.OpCanceled
	default:
		e.Op = journal.OpFailed
	}
	if res != nil {
		if b, err := json.Marshal(res); err == nil {
			e.Result = b
		}
	}
	s.appendJournal(e)
}

// doneEvent synthesizes the EventDone of a run that is not being
// re-executed (cache hits, journal-recovered terminal jobs).
func doneEvent(circuit string, res *rapids.Result) rapids.Event {
	return rapids.Event{
		Kind: rapids.EventDone, Circuit: circuit, Strategy: res.Strategy,
		DelayNS: res.FinalDelayNS, Swaps: res.Swaps,
		Resizes: res.Resizes, Verification: res.Verification,
		Result: res,
	}
}

// handleSubmit is POST /v1/jobs.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, key, ok := s.decodeRequest(w, r, &s.jobKind)
	if !ok {
		return
	}

	// Fleet routing (DESIGN.md §5c): every replica hashes the content
	// key onto the same ring. Non-owners forward — one hop only: a
	// *forwarded* submission this replica does not own means the peer
	// lists disagree, and bouncing it onward would loop.
	if s.ring != nil {
		forwardedFrom := r.Header.Get(forwardedHeader)
		if owner := s.ring.Owner(key); owner != s.cfg.SelfURL {
			if forwardedFrom != "" {
				s.metrics.routed.With(routeNotOwner).Inc()
				s.logf("route: refusing key %s forwarded by %s: owner is %s", key[:8], forwardedFrom, owner)
				writeJSON(w, http.StatusMisdirectedRequest, ErrorBody{
					Error: fmt.Sprintf("replica %s does not own key %s (owner %s): peer lists disagree", s.cfg.SelfURL, key[:8], owner),
					Code:  CodeNotOwner,
				})
				return
			}
			s.forwardSubmit(w, r, req, owner)
			return
		}
		if forwardedFrom != "" {
			s.metrics.routed.With(routeReceived).Inc()
		} else {
			s.metrics.routed.With(routeLocal).Inc()
		}
	}

	// A hit — local tier or shared store — is served as a job born in
	// state done: the id is real and GET /v1/jobs/{id} and the SSE
	// stream work uniformly. Integrity failures inside lookupResult
	// drop the entry and fall through to a fresh run.
	if e, res, outcome := s.lookupResult(key); res != nil {
		s.mu.Lock()
		j, rf := s.openJobLocked("", key, req)
		if rf != nil {
			s.mu.Unlock()
			rf.write(w)
			return
		}
		// Still invisible to other requests until s.mu is released.
		j.cached, j.circuit, j.gates = true, e.Circuit, e.Gates
		s.mu.Unlock()
		s.metrics.submissions.With(outcome).Inc()
		j.events.append(doneEvent(e.Circuit, res))
		s.finishJob(j, StateDone, res, "")
		s.logf("job %s: %s (%s)", j.id, outcome, e.Circuit)
		s.writeJob(w, http.StatusOK, j)
		return
	}

	// Registration, the journal's accepted record, and enqueue are one
	// critical section with the draining flag, so a submit cannot race
	// Shutdown's queue close, and the journal's accepted order is the
	// id order.
	s.mu.Lock()
	var full string
	if s.queue.len() >= s.cfg.QueueCap {
		// Backpressure: bounded submissions, explicit rejection.
		full = fmt.Sprintf("job queue is full (capacity %d)", s.cfg.QueueCap)
	}
	j, rf := s.openJobLocked(full, key, req)
	if rf != nil {
		// A failed journal append also turns readiness 503 until
		// appends heal.
		s.mu.Unlock()
		rf.write(w)
		return
	}
	s.queue.push(j)
	s.mu.Unlock()
	s.metrics.submissions.With(outcomeAccepted).Inc()
	src := req.Generate
	if src == "" {
		src = "inline netlist"
	}
	s.logf("job %s: queued (%s)", j.id, src)
	s.writeJob(w, http.StatusAccepted, j)
}

// openJobLocked admits, journals, and registers one job (openLocked);
// full is the queue-full message, empty when the job needs no queue
// slot. Callers hold s.mu.
func (s *Server) openJobLocked(full, key string, req JobRequest) (*job, *refusal) {
	id, seq, rf := s.openLocked(&s.jobKind, full, key, req)
	if rf != nil {
		return nil, rf
	}
	j := newJob(id, key, seq, req)
	s.jobs.addLocked(id, j)
	return j, nil
}

// lookupJob finds the job named by the request path. An unknown id is
// relayed to its owning replica in fleet mode, or answered 404.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok && !s.relayUnknownJob(w, r, id) {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
	}
	return j, ok
}

// handleStatus is GET /v1/jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookupJob(w, r); ok {
		s.writeJob(w, http.StatusOK, j)
	}
}

// handleList is GET /v1/jobs.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.all()
	statuses := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		statuses[i] = j.status()
	}
	writeJSON(w, http.StatusOK, statuses)
}

// handleCancel is DELETE /v1/jobs/{id}: it cancels the job's context
// and returns the current status with 202 Accepted. A running job
// stops at the next phase boundary with the best-so-far result (see
// the anytime semantics of rapids.Circuit.Optimize); a queued job is
// discarded when a worker picks it up. A job already in a terminal
// state cannot be canceled: 409 Conflict with Code
// "job_already_terminal" and the state in the error body.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	if st := j.stateNow(); st == StateDone || st == StateCanceled || st == StateFailed {
		writeJSON(w, http.StatusConflict, ErrorBody{
			Error: fmt.Sprintf("job %s is already %s", j.id, st),
			Code:  CodeJobAlreadyTerminal,
			State: st,
		})
		return
	}
	// The cancel intent is journaled so a crash between DELETE and the
	// job's terminal entry still cancels the job after recovery.
	s.appendJournal(journal.Entry{Op: journal.OpCancelRequested, JobID: j.id, Key: j.key, Seq: j.seq})
	j.cancel()
	s.logf("job %s: cancel requested", j.id)
	s.writeJob(w, http.StatusAccepted, j)
}

// handleEvents is GET /v1/jobs/{id}/events: a Server-Sent-Events
// stream of the run's typed rapids.Event feed. Buffered events are
// replayed first (subscribing after completion replays the whole run;
// a Last-Event-ID header resumes just past that event), then live
// events as the optimizer emits them; a final "end" event carries the
// terminal JobStatus and closes the stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookupJob(w, r); ok {
		serveStream(s, w, r, &j.events,
			func(w io.Writer, id int, ev rapids.Event) error {
				return writeFrame(w, id, ev.Kind.String(), ev)
			},
			func() any { return j.status() }, nil)
	}
}

// handleHealth is GET /healthz: liveness plus observability counters.
// It always returns 200 while the process serves — readiness lives at
// /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	counts := map[string]int{}
	for _, j := range s.jobs.all() {
		j.mu.Lock()
		counts[j.state]++
		j.mu.Unlock()
	}
	s.mu.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	s.mu.Unlock()
	sessCounts := map[string]int{}
	for _, ls := range s.sessions.all() {
		ls.mu.Lock()
		sessCounts[ls.state]++
		ls.mu.Unlock()
	}
	jstatus := "off"
	if s.cfg.Journal != nil {
		jstatus = "ok"
		if err := s.journalStatus(); err != nil {
			jstatus = err.Error()
		}
	}
	ststatus := "off"
	if s.cfg.Store != nil {
		ststatus = "ok"
		if err := s.storeStatus(); err != nil {
			ststatus = "degraded: " + err.Error()
		}
	}
	cacheLen := 0
	if s.local != nil {
		cacheLen = s.local.Len()
	}
	mark, gates, waiting := s.admit.state()
	body := map[string]any{
		"status":       status,
		"workers":      s.cfg.Workers,
		"admission":    map[string]int{"mark_gates": mark, "admitted_gates": gates, "waiting": waiting},
		"queue_cap":    s.cfg.QueueCap,
		"queue_len":    s.queue.len(),
		"jobs":         counts,
		"sessions":     sessCounts,
		"cache_len":    cacheLen,
		"journal":      jstatus,
		"store":        ststatus,
		"retries":      s.retries.Load(),
		"goroutines":   runtime.NumGoroutine(),
		"generated_at": time.Now().UTC().Format(time.RFC3339),
	}
	if s.ring != nil {
		body["peers"] = len(s.cfg.Peers)
		body["self"] = s.cfg.SelfURL
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReady is GET /readyz: 200 when the server can accept work, 503
// (with the reasons) while it is draining, its journal is failing
// appends, or the queue is at the high-water mark. Load balancers and
// the kill-restart harness key on this.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	reasons := []string{}
	if draining {
		reasons = append(reasons, "draining")
	}
	if err := s.journalStatus(); err != nil {
		reasons = append(reasons, "journal: "+err.Error())
	}
	qlen := s.queue.len()
	if qlen >= s.cfg.QueueCap {
		reasons = append(reasons, fmt.Sprintf("queue at high-water mark (%d/%d)", qlen, s.cfg.QueueCap))
	}
	ready := len(reasons) == 0
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"ready":     ready,
		"reasons":   reasons,
		"queue_len": qlen,
		"queue_cap": s.cfg.QueueCap,
	})
}

func (s *Server) writeJob(w http.ResponseWriter, code int, j *job) {
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, code, j.status())
}

// writeJSON writes v as one line of compact JSON: indenting an edit
// reply, which is mostly numbers, makes it ~1.7x larger and ~3x slower
// to encode. It encodes before the status line goes out, so a value
// encoding/json refuses (a NaN or ±Inf float) is answered 500 with an
// ErrorBody instead of code with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		code = http.StatusInternalServerError
		json.NewEncoder(&buf).Encode(ErrorBody{Error: "encoding the response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	// Error is the human-readable message.
	Error string `json:"error"`
	// Code is a stable machine-readable discriminator for errors a
	// client is expected to branch on; empty for generic errors.
	Code string `json:"code,omitempty"`
	// State carries the job's state for CodeJobAlreadyTerminal.
	State string `json:"state,omitempty"`
}

// CodeJobAlreadyTerminal is the ErrorBody.Code of a DELETE on a job
// that already reached a terminal state (409 Conflict).
const CodeJobAlreadyTerminal = "job_already_terminal"

// httpError writes the error contract: a JSON ErrorBody.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorBody{Error: fmt.Sprintf(format, args...)})
}
