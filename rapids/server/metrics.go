package server

import (
	"repro/internal/metrics"
	"repro/rapids"
)

// Submission outcomes, the label values of
// rapidsd_submissions_total{outcome=...}. The set is fixed — bounded
// label cardinality is a hard rule of the exposition (DESIGN.md §5b).
const (
	outcomeAccepted     = "accepted"
	outcomeCacheHit     = "cache_hit"
	outcomeStoreHit     = "store_hit"
	outcomeQueueFull    = "rejected_queue_full"
	outcomeDraining     = "rejected_draining"
	outcomeJournalError = "rejected_journal"
	outcomeInvalidReq   = "invalid"
)

// Routing dispositions, the label values of rapidsd_routed_total —
// again a fixed enum (never peer URLs: a fleet's size is small but a
// misconfigured peer string must not mint label values).
const (
	routeLocal           = "local"            // this replica owns the key and serves it
	routeForwarded       = "forwarded"        // proxied to the owning replica
	routeReceived        = "received"         // accepted a submission forwarded by a peer
	routePeerUnreachable = "peer_unreachable" // forwarding failed below HTTP
	routeNotOwner        = "not_owner"        // refused a forwarded key this replica does not own
)

// Session-open rejection reasons, the label values of
// rapidsd_sessions_rejected_total — a fixed enum like the others.
const (
	sessRejectCapacity = "capacity" // MaxSessions open sessions already
	sessRejectDraining = "draining" // server shutting down
	sessRejectJournal  = "journal"  // the open could not be journaled
	sessRejectInvalid  = "invalid"  // bad request or unloadable circuit
)

// serverMetrics is every instrument the service exports, one field per
// family, registered against one registry served at GET /metrics. The
// reconciliation invariant the scrape tests and the harness check:
//
//	submissions{accepted} + submissions{cache_hit} + submissions{store_hit}
//	    + journal_replayed_jobs
//	    == sum over states of jobs_completed + jobs still queued/running
//
// It holds per replica and therefore summed across a fleet, because a
// forwarded submission counts only on the replica that owns it (the
// forwarder counts routed{forwarded}, which is outside the funnel).
//
// The session funnel balances the same way:
//
//	sessions_opened + sessions_replayed{reopened}
//	    == sessions_active + sum over reasons of sessions_closed
//
// Counters are monotone for the life of the process; gauges report
// instantaneous state; histograms use the shared latency buckets.
type serverMetrics struct {
	reg *metrics.Registry

	// Submission funnel.
	submissions   *metrics.CounterVec // outcome
	jobsCompleted *metrics.CounterVec // state: done | canceled | failed

	// Queue.
	queueDepth     *metrics.Gauge
	queueHighWater *metrics.Gauge
	queueWait      *metrics.Histogram

	// Admission by circuit size (admit.go).
	admissionWaiting *metrics.Gauge
	admittedGates    *metrics.Gauge
	admissionMark    *metrics.Gauge
	admissionWait    *metrics.Histogram

	// Workers and attempts.
	workers      *metrics.Gauge
	workersBusy  *metrics.Gauge
	runSeconds   *metrics.Histogram
	attempts     *metrics.Counter
	retries      *metrics.Counter
	workerPanics *metrics.Counter
	jobTimeouts  *metrics.Counter

	// Result cache.
	cacheHits        *metrics.Counter
	cacheMisses      *metrics.Counter
	cacheEvictions   *metrics.Counter
	cacheCorruptions *metrics.Counter

	// Shared result store (fleet mode).
	storeHits        *metrics.Counter
	storeMisses      *metrics.Counter
	storePuts        *metrics.Counter
	storeDegraded    *metrics.Counter
	storeCorruptions *metrics.Counter

	// Replica routing (fleet mode).
	routed *metrics.CounterVec // disposition

	// Journal.
	journalAppends        *metrics.Counter
	journalAppendFailures *metrics.Counter
	journalReplayed       *metrics.CounterVec // disposition: reborn | requeued

	// ECO sessions.
	sessionsOpened      *metrics.Counter
	sessionsActive      *metrics.Gauge
	sessionsClosed      *metrics.CounterVec // reason: client | evicted | drain | journal
	sessionsRejected    *metrics.CounterVec // reason: capacity | draining | journal | invalid
	sessionsReplayed    *metrics.CounterVec // disposition: reopened | dropped
	sessionEdits        *metrics.Counter
	sessionApplySeconds *metrics.Histogram
	sessionTouchedGates *metrics.Histogram

	// Streams and engine timing.
	sseSubscribers *metrics.Gauge
	sseResyncs     *metrics.Counter
	phaseSeconds   *metrics.HistogramVec // phase: start | min-slack | sum-slack | round | verify
}

func newServerMetrics() *serverMetrics {
	r := metrics.NewRegistry()
	return &serverMetrics{
		reg: r,
		submissions: r.CounterVec("rapidsd_submissions_total",
			"POST /v1/jobs submissions by outcome.", "outcome"),
		jobsCompleted: r.CounterVec("rapidsd_jobs_completed_total",
			"Jobs that reached a terminal state, by state.", "state"),
		queueDepth: r.Gauge("rapidsd_queue_depth",
			"Jobs currently waiting for a worker."),
		queueHighWater: r.Gauge("rapidsd_queue_depth_high_water",
			"Peak queue depth observed since start."),
		queueWait: r.Histogram("rapidsd_job_queue_wait_seconds",
			"Time jobs spent queued before a worker picked them up.", nil),
		admissionWaiting: r.Gauge("rapidsd_admission_waiting",
			"Loaded jobs waiting for their gates to fit within the admission mark."),
		admittedGates: r.Gauge("rapidsd_admitted_gates",
			"Gates of the admitted jobs still placing or optimizing."),
		admissionMark: r.Gauge("rapidsd_admission_mark_gates",
			"The admission mark: gates of the largest circuit started since start."),
		admissionWait: r.Histogram("rapidsd_job_admission_wait_seconds",
			"Time loaded jobs waited for admission (a part of their queue time).", nil),
		workers: r.Gauge("rapidsd_workers",
			"Configured optimization worker count."),
		workersBusy: r.Gauge("rapidsd_workers_busy",
			"Workers currently running a job."),
		runSeconds: r.Histogram("rapidsd_job_run_seconds",
			"Wall-clock duration of individual optimization attempts.", nil),
		attempts: r.Counter("rapidsd_job_attempts_total",
			"Optimization attempts started (first runs and retries)."),
		retries: r.Counter("rapidsd_job_retries_total",
			"Retries scheduled after transient failures (panic, timeout)."),
		workerPanics: r.Counter("rapidsd_worker_panics_total",
			"Optimization attempts that panicked (confined to the attempt)."),
		jobTimeouts: r.Counter("rapidsd_job_timeouts_total",
			"Optimization attempts cut off by the per-attempt deadline."),
		cacheHits: r.Counter("rapidsd_cache_hits_total",
			"Submissions served from the result cache."),
		cacheMisses: r.Counter("rapidsd_cache_misses_total",
			"Submissions that missed the result cache."),
		cacheEvictions: r.Counter("rapidsd_cache_evictions_total",
			"Result-cache entries evicted by the LRU bound."),
		cacheCorruptions: r.Counter("rapidsd_cache_corruptions_total",
			"Cache entries dropped by a failed integrity checksum."),
		storeHits: r.Counter("rapidsd_store_hits_total",
			"Submissions served from the shared result store (a peer ran the job)."),
		storeMisses: r.Counter("rapidsd_store_misses_total",
			"Shared-store lookups that found nothing."),
		storePuts: r.Counter("rapidsd_store_puts_total",
			"Results written through to the shared store."),
		storeDegraded: r.Counter("rapidsd_store_degraded_total",
			"Shared-store operations that failed; the server fell back to its local LRU."),
		storeCorruptions: r.Counter("rapidsd_store_corruptions_total",
			"Shared-store entries dropped by a failed integrity checksum."),
		routed: r.CounterVec("rapidsd_routed_total",
			"Submission routing decisions by disposition (fleet mode).", "disposition"),
		journalAppends: r.Counter("rapidsd_journal_appends_total",
			"Journal entries successfully appended."),
		journalAppendFailures: r.Counter("rapidsd_journal_append_failures_total",
			"Journal appends that failed (readiness turns 503 while the last one did)."),
		journalReplayed: r.CounterVec("rapidsd_journal_replayed_jobs_total",
			"Jobs restored from the journal at startup, by disposition.", "disposition"),
		sessionsOpened: r.Counter("rapidsd_sessions_opened_total",
			"ECO sessions opened by POST /v1/sessions."),
		sessionsActive: r.Gauge("rapidsd_sessions_active",
			"ECO sessions currently open."),
		sessionsClosed: r.CounterVec("rapidsd_sessions_closed_total",
			"ECO sessions closed, by reason.", "reason"),
		sessionsRejected: r.CounterVec("rapidsd_sessions_rejected_total",
			"POST /v1/sessions requests rejected, by reason.", "reason"),
		sessionsReplayed: r.CounterVec("rapidsd_sessions_replayed_total",
			"Sessions found in the journal at startup, by disposition.", "disposition"),
		sessionEdits: r.Counter("rapidsd_session_edits_total",
			"Individual edits applied across all sessions."),
		sessionApplySeconds: r.Histogram("rapidsd_session_apply_seconds",
			"Wall-clock duration of session edit batches (apply + incremental re-timing).", nil),
		sessionTouchedGates: r.Histogram("rapidsd_session_touched_gates",
			"Gates re-timed per session mutation — the dirty-region size.",
			[]float64{1, 4, 16, 64, 256, 1024, 4096, 16384}),
		sseSubscribers: r.Gauge("rapidsd_sse_subscribers",
			"Open SSE event streams (jobs and sessions)."),
		sseResyncs: r.Counter("rapidsd_sse_resyncs_total",
			"Resync frames sent to session SSE subscribers behind the retained delta window."),
		phaseSeconds: r.HistogramVec("rapidsd_optimize_phase_seconds",
			"Engine-level durations from the typed Event stream, by phase.",
			nil, "phase"),
	}
}

// observeEvent feeds the engine's typed Event stream into the
// per-phase duration histograms: the facade stamps every event with
// the wall-clock time since the previous one (Event.Elapsed), which is
// exactly the duration of the work the event reports. The label set
// stays bounded: "start" (seeding analysis), the optimizer's own phase
// names ("min-slack", "sum-slack", "round"), and "verify".
func (m *serverMetrics) observeEvent(ev rapids.Event) {
	switch ev.Kind {
	case rapids.EventStart:
		m.phaseSeconds.With("start").ObserveDuration(ev.Elapsed)
	case rapids.EventPhase:
		m.phaseSeconds.With(ev.Phase).ObserveDuration(ev.Elapsed)
	case rapids.EventVerify:
		m.phaseSeconds.With("verify").ObserveDuration(ev.Elapsed)
	}
}
