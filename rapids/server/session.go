// Interactive ECO sessions over HTTP (DESIGN.md §5d): the server-side
// registry of rapids.Session instances, one per POST /v1/sessions.
//
//	POST   /v1/sessions              open (201; 503 at the MaxSessions cap or while draining)
//	GET    /v1/sessions              list all sessions, open order
//	GET    /v1/sessions/{id}         SessionStatus
//	POST   /v1/sessions/{id}/edits   apply an edit batch (+ optional reoptimize), returns the Deltas
//	GET    /v1/sessions/{id}/timing  the session's current TimingView (lock-free read)
//	GET    /v1/sessions/{id}/events  SSE stream of the latest deltas, then live ones
//	DELETE /v1/sessions/{id}         close; 409 once closed
//
// A session keeps only its deltaWindow (32) latest deltas for SSE. A
// subscriber that starts, or resumes with Last-Event-ID, behind that
// window first gets one "resync" frame carrying the current TimingView,
// then only deltas newer than that view.
//
// Crash safety rides the job journal: the open request and every
// applied edit batch are journaled, and replay rebuilds each
// still-open session by re-loading its circuit and re-applying the
// batches in order — the facade's determinism contract (rapids.Session)
// makes the rebuilt network and timing bit-identical. Sessions with a
// journaled close are dropped at replay. Idle sessions are evicted
// after Config.SessionTTL by a background sweeper.
//
// In fleet mode sessions are replica-local: a session is pinned to the
// replica that opened it (its circuit state lives in that process), so
// session requests are never forwarded. Clients talk to the replica
// that answered the open.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/rapids"
	"repro/rapids/server/journal"
)

// Session states, as reported in SessionStatus.State.
const (
	SessionOpen   = "open"
	SessionClosed = "closed"
)

// Session close reasons: SessionStatus.CloseReason and the label values
// of rapidsd_sessions_closed_total (a fixed enum, DESIGN.md §5b).
const (
	closeClient  = "client"  // DELETE /v1/sessions/{id}
	closeEvicted = "evicted" // idle past Config.SessionTTL
	closeDrain   = "drain"   // server shutdown
	closeJournal = "journal" // an applied batch could not be journaled
)

// SessionRequest is the POST /v1/sessions payload: the same circuit
// source and placement spec as a job submission. Options' clock_ns,
// strategy, workers, and window configure the session (the options
// Circuit.BeginSession honors); the rest have no session meaning.
type SessionRequest = JobRequest

// SessionStatus is the response body of POST /v1/sessions,
// GET /v1/sessions/{id}, and DELETE /v1/sessions/{id}, and one element
// of GET /v1/sessions.
type SessionStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Circuit and Gates identify the loaded netlist at open time.
	Circuit string `json:"circuit,omitempty"`
	Gates   int    `json:"gates,omitempty"`
	// ClockNS is the session's frozen clock.
	ClockNS float64 `json:"clock_ns"`
	// Seq counts the session's successful mutations; Edits the applied
	// edits across all batches.
	Seq   int `json:"seq"`
	Edits int `json:"edits"`
	// DelayNS, LatenessNS, and Epoch mirror the last published
	// TimingView.
	DelayNS    float64 `json:"delay_ns"`
	LatenessNS float64 `json:"lateness_ns"`
	Epoch      uint64  `json:"epoch"`
	// Recovered marks a session rebuilt from the journal after a
	// restart (its edit log was replayed onto a fresh load).
	Recovered bool `json:"recovered,omitempty"`
	// CloseReason explains a closed session: client, evicted, drain, or
	// journal.
	CloseReason string `json:"close_reason,omitempty"`
}

// editWire is the strict decode shape of POST /v1/sessions/{id}/edits
// and of the journaled session-edit payload. Edits stays raw JSON so
// rapids.ParseEdits is the only decoder that ever sees an edit batch —
// endpoint and replay cannot diverge.
type editWire struct {
	Edits      json.RawMessage `json:"edits,omitempty"`
	Reoptimize bool            `json:"reoptimize,omitempty"`
}

// EditResponse is the response of POST /v1/sessions/{id}/edits: the
// deltas the request produced — one for the edit batch, one more when
// reoptimize was set.
type EditResponse struct {
	ID     string          `json:"id"`
	Deltas []*rapids.Delta `json:"deltas"`
}

// deltaWindow is how many of its latest deltas a session keeps for SSE
// subscribers. Anything older is summed up by a resync frame; memory
// per session stays bounded however many edits it takes. 32 deltas of
// an s38417 edit hold about 5 MB.
const deltaWindow = 32

// CodeSessionClosed is the ErrorBody.Code of an edit or DELETE on a
// session that is already closed (409 Conflict).
const CodeSessionClosed = "session_closed"

// liveSession is the server-side state of one ECO session.
type liveSession struct {
	id  string
	key string // content-hash of the open request
	seq int    // registration sequence number (shared with jobs)
	req SessionRequest

	// mu guards everything below and orders journal appends with
	// applies: an edit batch is applied, journaled, and buffered as one
	// critical section, so the journal's batch order is the apply order.
	mu        sync.Mutex
	sess      *rapids.Session
	circuit   string
	gates     int
	state     string
	reason    string // close reason once closed
	edits     int    // edits applied over the session's life
	recovered bool
	lastUsed  time.Time
	deltas    stream[*rapids.Delta] // the deltaWindow latest; closed with the session
}

// newLiveSession loads and places req's circuit and opens the facade
// session on it — the shared construction path of POST /v1/sessions and
// journal replay, so a replayed session starts from the bit-identical
// placed circuit the original did. The caller assigns the identity.
func newLiveSession(req SessionRequest) (*liveSession, error) {
	c, err := placedCircuit(req)
	if err != nil {
		return nil, err
	}
	sess, err := c.BeginSession(context.Background(), req.Options.Options()...)
	if err != nil {
		return nil, err
	}
	return &liveSession{
		req: req, sess: sess, circuit: c.Name(), gates: c.Gates(),
		state: SessionOpen, lastUsed: time.Now(),
		deltas: stream[*rapids.Delta]{keep: deltaWindow},
	}, nil
}

func (ls *liveSession) status() SessionStatus {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.statusLocked()
}

func (ls *liveSession) statusLocked() SessionStatus {
	v := ls.sess.View()
	return SessionStatus{
		ID: ls.id, State: ls.state,
		Circuit: ls.circuit, Gates: ls.gates,
		ClockNS: ls.sess.Clock(),
		Seq:     v.Seq, Edits: ls.edits,
		DelayNS: v.DelayNS, LatenessNS: v.LatenessNS, Epoch: v.Epoch,
		Recovered:   ls.recovered,
		CloseReason: ls.reason,
	}
}

// closedLocked is the 409 body of an edit or DELETE on a closed
// session. Callers hold ls.mu.
func (ls *liveSession) closedLocked() ErrorBody {
	return ErrorBody{
		Error: fmt.Sprintf("session %s is already closed (%s)", ls.id, ls.reason),
		Code:  CodeSessionClosed,
		State: ls.state,
	}
}

// handleSessionOpen is POST /v1/sessions.
func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	req, key, ok := s.decodeRequest(w, r, &s.sessKind)
	if !ok {
		return
	}

	// Reserve a slot before the expensive build, so concurrent opens
	// cannot overshoot MaxSessions. The sessions_active gauge is the
	// count of open sessions.
	s.mu.Lock()
	var full string
	if s.cfg.MaxSessions >= 0 && int(s.metrics.sessionsActive.Value())+s.sessPending >= s.cfg.MaxSessions {
		// Backpressure, not buffering: the cap bounds the live circuits
		// (and their incremental timers) held in memory.
		full = fmt.Sprintf("session capacity reached (%d open)", s.cfg.MaxSessions)
	}
	if rf := s.admitLocked(&s.sessKind, full); rf != nil {
		s.mu.Unlock()
		rf.write(w)
		return
	}
	s.sessPending++
	s.mu.Unlock()

	ls, err := newLiveSession(req)

	s.mu.Lock()
	s.sessPending--
	if err != nil {
		s.mu.Unlock()
		s.metrics.sessionsRejected.With(sessRejectInvalid).Inc()
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var rf *refusal
	if ls.id, ls.seq, rf = s.openLocked(&s.sessKind, "", key, req); rf != nil {
		s.mu.Unlock()
		ls.sess.Close()
		rf.write(w)
		return
	}
	ls.key = key
	s.sessions.addLocked(ls.id, ls)
	s.metrics.sessionsOpened.Inc()
	s.metrics.sessionsActive.Inc()
	s.mu.Unlock()
	s.logf("session %s: opened (%s, %d gates)", ls.id, ls.circuit, ls.gates)
	s.writeSession(w, http.StatusCreated, ls)
}

// lookupSession finds the session named by the request path, or
// answers 404.
func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request) (*liveSession, bool) {
	id := r.PathValue("id")
	ls, ok := s.sessions.get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown session %q", id)
	}
	return ls, ok
}

// handleSessionList is GET /v1/sessions.
func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	sessions := s.sessions.all()
	statuses := make([]SessionStatus, len(sessions))
	for i, ls := range sessions {
		statuses[i] = ls.status()
	}
	writeJSON(w, http.StatusOK, statuses)
}

// handleSessionStatus is GET /v1/sessions/{id}.
func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	if ls, ok := s.lookupSession(w, r); ok {
		s.writeSession(w, http.StatusOK, ls)
	}
}

// handleSessionEdits is POST /v1/sessions/{id}/edits: apply one edit
// batch (and optionally one targeted re-optimization pass) and return
// the resulting deltas. The batch is all-or-nothing — a semantically
// invalid edit rejects it with 422 before the circuit is touched — and
// is journaled only after it fully applied, so the journal never
// records a batch the circuit does not hold.
func (s *Server) handleSessionEdits(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	var wire editWire
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		httpError(w, http.StatusBadRequest, "invalid edit request: %v", err)
		return
	}
	var edits []rapids.Edit
	if len(wire.Edits) > 0 {
		var err error
		edits, err = rapids.ParseEdits(wire.Edits)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if len(edits) == 0 && !wire.Reoptimize {
		httpError(w, http.StatusBadRequest, "empty edit request: no edits and no reoptimize")
		return
	}

	ls.mu.Lock()
	if ls.state != SessionOpen {
		body := ls.closedLocked()
		ls.mu.Unlock()
		writeJSON(w, http.StatusConflict, body)
		return
	}
	var deltas []*rapids.Delta
	if len(edits) > 0 {
		d, err := ls.sess.Apply(edits...)
		if err != nil {
			ls.mu.Unlock()
			httpError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		deltas = append(deltas, d)
	}
	if wire.Reoptimize {
		// Background context: a client disconnect must not truncate the
		// pass, or journal replay would not reconstruct the same network.
		d, err := ls.sess.Reoptimize(context.Background())
		if err != nil {
			ls.mu.Unlock()
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		deltas = append(deltas, d)
	}
	if err := s.journalSessionEdit(ls, edits, wire.Reoptimize); err != nil {
		// The batch is in the circuit but not the journal: a replay
		// would diverge from the live state, so the session is no
		// longer recoverable — close it rather than serve a lie.
		s.closeSessionLocked(ls, closeJournal)
		ls.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "journal unavailable: %v (session closed)", err)
		return
	}
	ls.edits += len(edits)
	ls.lastUsed = time.Now()
	ls.deltas.append(deltas...)
	ls.mu.Unlock()

	s.metrics.sessionEdits.Add(uint64(len(edits)))
	for _, d := range deltas {
		s.metrics.sessionApplySeconds.ObserveDuration(d.Elapsed)
		s.metrics.sessionTouchedGates.Observe(float64(d.TouchedGates))
	}
	writeEditResponse(w, EditResponse{ID: ls.id, Deltas: deltas})
}

// journalSessionEdit records one applied batch in canonical form (the
// re-marshaled edits, not the client's bytes), so replay parses exactly
// what was applied. Callers hold ls.mu.
func (s *Server) journalSessionEdit(ls *liveSession, edits []rapids.Edit, reopt bool) error {
	if s.cfg.Journal == nil {
		return nil
	}
	wire := editWire{Reoptimize: reopt}
	if len(edits) > 0 {
		b, err := json.Marshal(edits)
		if err != nil {
			return err
		}
		wire.Edits = b
	}
	b, err := json.Marshal(wire)
	if err != nil {
		return err
	}
	return s.appendJournal(journal.Entry{
		Op: journal.OpSessionEdit, JobID: ls.id, Key: ls.key, Seq: ls.seq, Request: b,
	})
}

// handleSessionTiming is GET /v1/sessions/{id}/timing: the immutable
// TimingView the session's last mutation published. The read is
// lock-free — it never waits on a writer mid-Apply, and a closed
// session still serves its final view.
func (s *Server) handleSessionTiming(w http.ResponseWriter, r *http.Request) {
	if ls, ok := s.lookupSession(w, r); ok {
		writeJSON(w, http.StatusOK, ls.sess.View())
	}
}

// handleSessionEvents is GET /v1/sessions/{id}/events: a
// Server-Sent-Events stream of the session's retained deltas, from
// index 0 or past Last-Event-ID, then live as edits arrive; a final
// "end" event carries the closed SessionStatus. A subscriber behind the
// window gets a "resync" frame with the current TimingView (a lock-free
// read) and then only deltas with a higher Seq.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	if ls, ok := s.lookupSession(w, r); ok {
		serveStream(s, w, r, &ls.deltas,
			writeDeltaFrame,
			func() any { return ls.status() },
			func() (any, func(*rapids.Delta) bool) {
				v := ls.sess.View()
				return v, func(d *rapids.Delta) bool { return d.Seq <= v.Seq }
			})
	}
}

// handleSessionClose is DELETE /v1/sessions/{id}. Edits already applied
// stay in the session's circuit (the facade's anytime property); only
// the timer detaches. A session already closed: 409 Conflict with Code
// "session_closed".
func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	ls.mu.Lock()
	if ls.state != SessionOpen {
		body := ls.closedLocked()
		ls.mu.Unlock()
		writeJSON(w, http.StatusConflict, body)
		return
	}
	s.closeSessionLocked(ls, closeClient)
	status := ls.statusLocked()
	ls.mu.Unlock()
	s.logf("session %s: closed by client", ls.id)
	writeJSON(w, http.StatusOK, status)
}

// closeSessionLocked closes one session: the facade timer detaches, the
// SSE stream terminates, the close is journaled (so replay drops the
// session), and the metrics funnel balances. Callers hold ls.mu but
// never s.mu (the journal append and gauge updates are lock-safe).
func (s *Server) closeSessionLocked(ls *liveSession, reason string) {
	ls.sess.Close()
	ls.state = SessionClosed
	ls.reason = reason
	ls.deltas.close()
	s.metrics.sessionsActive.Dec()
	s.metrics.sessionsClosed.With(reason).Inc()
	s.appendJournal(journal.Entry{
		Op: journal.OpSessionClosed, JobID: ls.id, Key: ls.key, Seq: ls.seq, Error: reason,
	})
}

// sessionSweeper evicts idle sessions every tick until drain. Runs on
// its own goroutine (joined through s.wg) when SessionTTL > 0.
func (s *Server) sessionSweeper() {
	defer s.wg.Done()
	ttl := s.cfg.SessionTTL
	tick := ttl / 4
	if tick > 30*time.Second {
		tick = 30 * time.Second
	}
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.drainc:
			return
		case <-t.C:
			s.evictIdleSessions(ttl)
		}
	}
}

// evictIdleSessions closes every open session idle past ttl.
func (s *Server) evictIdleSessions(ttl time.Duration) {
	cutoff := time.Now().Add(-ttl)
	for _, ls := range s.sessions.all() {
		ls.mu.Lock()
		if ls.state == SessionOpen && ls.lastUsed.Before(cutoff) {
			s.closeSessionLocked(ls, closeEvicted)
			s.logf("session %s: evicted after %v idle", ls.id, ttl)
		}
		ls.mu.Unlock()
	}
}

// drainSessions closes every open session at shutdown (reason "drain").
// Their circuits hold all applied edits and the journal holds the
// closes, so a restart rebuilds nothing.
func (s *Server) drainSessions() {
	for _, ls := range s.sessions.all() {
		ls.mu.Lock()
		if ls.state == SessionOpen {
			s.closeSessionLocked(ls, closeDrain)
		}
		ls.mu.Unlock()
	}
}

func (s *Server) writeSession(w http.ResponseWriter, code int, ls *liveSession) {
	w.Header().Set("Location", "/v1/sessions/"+ls.id)
	writeJSON(w, code, ls.status())
}
