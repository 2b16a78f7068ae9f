package server

import (
	"context"
	"sync"
	"time"

	"repro/rapids"
)

// Job states, as reported in JobStatus.State. The life cycle is
// queued → running → one of done / canceled / failed; cache hits are
// born done.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"     // Result present; for interrupted runs see Result.Interrupted
	StateCanceled = "canceled" // DELETE (or shutdown deadline) stopped the run; Result holds best-so-far if it started
	StateFailed   = "failed"   // load/parse error or verification failure; Error explains
)

// JobRequest is the POST /v1/jobs payload: exactly one circuit source
// (Generate or Netlist), an optional placement spec, and the
// rapids.Spec mirror of Optimize's options.
type JobRequest struct {
	// Generate names a built-in Table 1 benchmark (rapids.Benchmarks).
	Generate string `json:"generate,omitempty"`
	// Netlist is an inline netlist payload; Format selects its syntax
	// ("auto", "blif", or "bench" — rapids.ParseFormat). Auto means
	// BLIF here: an inline payload has no file name to dispatch on.
	Netlist string `json:"netlist,omitempty"`
	Format  string `json:"format,omitempty"`
	// Place configures the placement run; nil uses the defaults
	// (seed 1, 30 moves per cell, square die).
	Place *PlaceSpec `json:"place,omitempty"`
	// Options mirrors Circuit.Optimize's With* options.
	Options rapids.Spec `json:"options"`
}

// PlaceSpec is the wire form of the Place options.
type PlaceSpec struct {
	Seed   int64   `json:"seed,omitempty"`
	Moves  int     `json:"moves,omitempty"`
	Aspect float64 `json:"aspect,omitempty"`
}

// withDefaults fills the zero values with Place's documented defaults,
// so differently-spelled identical requests share a cache key.
func (p PlaceSpec) withDefaults() PlaceSpec {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Moves == 0 {
		p.Moves = 30
	}
	if p.Aspect == 0 {
		p.Aspect = 1
	}
	return p
}

// JobStatus is the response body of POST /v1/jobs, GET /v1/jobs/{id},
// and DELETE /v1/jobs/{id}, and one element of GET /v1/jobs.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Cached marks a job served from the result cache without a run.
	Cached bool `json:"cached,omitempty"`
	// Circuit and Gates identify the loaded netlist (set once a worker
	// has loaded it; immediately for cache hits). A queued job with
	// Gates set is loaded and waiting for admission.
	Circuit string `json:"circuit,omitempty"`
	Gates   int    `json:"gates,omitempty"`
	// Error explains failed (and canceled-before-start) jobs.
	Error string `json:"error,omitempty"`
	// Attempts counts optimization attempts; > 1 means automatic
	// retries after transient failures (worker panic, job timeout).
	Attempts int `json:"attempts,omitempty"`
	// Recovered marks a job restored from the journal after a restart
	// (re-enqueued if it was live at crash time, reborn terminal
	// otherwise).
	Recovered bool `json:"recovered,omitempty"`
	// QueuedFor is the accumulated time the job spent waiting for a
	// worker (including retry backoff waits) or, loaded, for admission,
	// and RanFor the accumulated wall-clock time of its attempts.
	// AdmissionWait is the part of QueuedFor spent waiting for
	// admission: until the job's gates fit within the largest circuit
	// the server has started, beside every job still running
	// (DESIGN.md §5). All three are journaled with the terminal
	// transition, so a job reborn after a restart reports the timings
	// of its original run.
	QueuedFor     time.Duration `json:"queued_for_ns,omitempty"`
	RanFor        time.Duration `json:"ran_for_ns,omitempty"`
	AdmissionWait time.Duration `json:"admission_wait_ns,omitempty"`
	// Result is the structured rapids.Result once the job finished.
	// Canceled jobs that had started carry the best-so-far result with
	// Result.Interrupted set (the facade's anytime contract).
	Result *rapids.Result `json:"result,omitempty"`
}

// job is the server-side state of one submission.
type job struct {
	id     string
	key    string // content-hash cache key
	seq    int    // submission sequence number (journal replay restores it)
	req    JobRequest
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     string
	cached    bool
	recovered bool // restored from the journal by a restarted server
	attempt   int  // optimization attempts begun (retries increment)
	circuit   string
	gates     int
	errmsg    string
	result    *rapids.Result
	events    stream[rapids.Event] // closed once the job is terminal

	// Timing accounting: enqueuedAt/startedAt mark the start of the
	// current queued/running stint (zero when not in that state);
	// queuedFor/ranFor accumulate completed stints across retries, and
	// admissionWait the admission waits booked into queuedFor.
	enqueuedAt    time.Time
	startedAt     time.Time
	queuedFor     time.Duration
	ranFor        time.Duration
	admissionWait time.Duration
}

func newJob(id, key string, seq int, req JobRequest) *job {
	ctx, cancel := context.WithCancel(context.Background())
	return &job{
		id: id, key: key, seq: seq, req: req,
		ctx: ctx, cancel: cancel,
		state:      StateQueued,
		enqueuedAt: time.Now(),
	}
}

// beginRun closes the job's current queued stint and opens a running
// one, returning the time it spent waiting (the queue-wait sample).
// Called by the worker the moment it picks the job up.
func (j *job) beginRun() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	now := time.Now()
	var wait time.Duration
	if !j.enqueuedAt.IsZero() {
		wait = now.Sub(j.enqueuedAt)
		j.queuedFor += wait
		j.enqueuedAt = time.Time{}
	}
	j.startedAt = now
	return wait
}

// closeStints folds any open queued/running stint into the
// accumulators. Callers hold j.mu.
func (j *job) closeStints(now time.Time) {
	if !j.enqueuedAt.IsZero() {
		j.queuedFor += now.Sub(j.enqueuedAt)
		j.enqueuedAt = time.Time{}
	}
	if !j.startedAt.IsZero() {
		j.ranFor += now.Sub(j.startedAt)
		j.startedAt = time.Time{}
	}
}

// setLoaded records the identity of the job's loaded circuit.
func (j *job) setLoaded(circuit string, gates int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.circuit = circuit
	j.gates = gates
}

// admitted books an admission wait of d, spent inside the running stint
// beginRun opened, as queue time: the loaded job was waiting for
// capacity, not running.
func (j *job) admitted(d time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.queuedFor += d
	j.admissionWait += d
	j.startedAt = j.startedAt.Add(d)
}

func (j *job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
}

// setQueued moves a transiently-failed job back behind the workers
// while its retry backoff elapses: the running stint ends and a new
// queued stint opens (backoff waits count as queue time — the job is
// waiting for a worker either way).
func (j *job) setQueued() {
	j.mu.Lock()
	defer j.mu.Unlock()
	now := time.Now()
	j.closeStints(now)
	j.enqueuedAt = now
	j.state = StateQueued
}

// nextAttempt registers the start of an optimization attempt and
// returns its 1-based number.
func (j *job) nextAttempt() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.attempt++
	return j.attempt
}

func (j *job) attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempt
}

func (j *job) stateNow() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// finish moves the job to a terminal state, then closes the event
// stream: a subscriber that sees the close reads the terminal status.
func (j *job) finish(state string, res *rapids.Result, errmsg string) {
	j.mu.Lock()
	j.closeStints(time.Now())
	j.state = state
	j.result = res
	j.errmsg = errmsg
	j.mu.Unlock()
	j.events.close()
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.id, State: j.state, Cached: j.cached,
		Circuit: j.circuit, Gates: j.gates,
		Error: j.errmsg, Attempts: j.attempt, Recovered: j.recovered,
		QueuedFor: j.queuedFor, RanFor: j.ranFor, AdmissionWait: j.admissionWait,
		Result: j.result,
	}
}
