package server

// The life cycle shared by the service's two journaled entity kinds,
// batch jobs and ECO sessions (DESIGN.md §5): one admission path (decode
// and key the request, refuse while draining or at capacity, mint an
// id, journal the opening entry), one id table, one replayable progress
// stream served by one SSE writer, one load-and-place site, and one
// journal fold (an opening entry plus its follow-ups).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/rapids"
	"repro/rapids/server/journal"
)

// kind is what tells jobs and sessions apart on the shared paths: their
// noun in messages, id prefix, opening journal op, and the counter (with
// its label values) their refusals are counted in.
type kind struct {
	noun     string // "job" or "session"
	prefix   string // id prefix
	opened   journal.Op
	rejected *metrics.CounterVec
	// Label values of rejected.
	invalid, draining, full, journalFailed string
}

// decodeRequest is the admission prologue of POST /v1/jobs and
// POST /v1/sessions: a strict decode, exactly one circuit source, a
// known netlist format, and the content key. A bad request is answered
// with 400 and counted as invalid.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, k *kind) (req JobRequest, key string, ok bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err != nil {
		err = fmt.Errorf("invalid %s request: %v", k.noun, err)
	} else if (req.Generate == "") == (req.Netlist == "") {
		err = errors.New("exactly one of generate or netlist is required")
	} else if format, ferr := rapids.ParseFormat(req.Format); ferr != nil {
		err = ferr
	} else {
		key = cacheKey(req, format)
	}
	if err != nil {
		k.rejected.With(k.invalid).Inc()
		httpError(w, http.StatusBadRequest, "%v", err)
		return req, "", false
	}
	return req, key, true
}

// refusal is a 503 decided under s.mu and written once it is released.
type refusal struct {
	msg        string
	retryAfter bool
}

func (rf *refusal) write(w http.ResponseWriter) {
	if rf.retryAfter {
		w.Header().Set("Retry-After", "1")
	}
	httpError(w, http.StatusServiceUnavailable, "%s", rf.msg)
}

// admitLocked refuses new work while the server drains and, when full
// (the capacity message) is non-empty, at capacity — backpressure, with
// Retry-After. Callers hold s.mu.
func (s *Server) admitLocked(k *kind, full string) *refusal {
	switch {
	case s.draining:
		k.rejected.With(k.draining).Inc()
		return &refusal{msg: "server is shutting down"}
	case full != "":
		k.rejected.With(k.full).Inc()
		return &refusal{msg: full, retryAfter: true}
	}
	return nil
}

// openLocked admits a job or session, mints its id, and journals the
// opening entry with the full request: the replay seed of a recovery.
// An open the journal does not hold would be lost by a crash, so a
// failed append refuses it. The caller registers the entity before
// releasing s.mu, so an entity becomes visible exactly when its opening
// entry is journaled. Callers hold s.mu.
func (s *Server) openLocked(k *kind, full, key string, req JobRequest) (id string, seq int, rf *refusal) {
	if rf = s.admitLocked(k, full); rf != nil {
		return "", 0, rf
	}
	s.seq++
	id, seq = fmt.Sprintf("%s%d-%s", k.prefix, s.seq, key[:8]), s.seq
	if s.cfg.Journal == nil {
		return id, seq, nil
	}
	b, err := json.Marshal(req)
	if err == nil {
		err = s.appendJournal(journal.Entry{Op: k.opened, JobID: id, Key: key, Seq: seq, Request: b})
	}
	if err != nil {
		k.rejected.With(k.journalFailed).Inc()
		return "", 0, &refusal{msg: "journal unavailable: " + err.Error()}
	}
	return id, seq, nil
}

// table is the id registry of one entity kind, guarded by the Server's
// mu: lookups by id plus the registration order listings use. Nothing
// is ever removed — an id is registered only once its opening entry is
// journaled.
type table[E any] struct {
	mu    *sync.Mutex
	byID  map[string]E
	order []E
}

// addLocked registers e under id. Callers hold t.mu.
func (t *table[E]) addLocked(id string, e E) {
	if t.byID == nil {
		t.byID = make(map[string]E)
	}
	t.byID[id] = e
	t.order = append(t.order, e)
}

func (t *table[E]) get(id string) (E, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.byID[id]
	return e, ok
}

// all returns every registered entity in registration order.
func (t *table[E]) all() []E {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]E(nil), t.order...)
}

// stream is an append-only, replayable log with a wake channel: the
// progress feed of a job (rapids.Event) or a session (*rapids.Delta).
// Items keep absolute indices — the SSE frame ids — for the stream's
// life. A stream with keep > 0 serves only its keep latest items; a
// subscriber behind that window is resynced by serveStream. Job streams
// keep everything (a job's events are bounded by its run). It guards
// itself, so owners may append while holding their own lock.
type stream[T any] struct {
	mu     sync.Mutex
	keep   int           // window size; 0 keeps every item
	first  int           // absolute index of items[0]
	items  []T           // holds the window, plus at most keep-1 older items
	closed bool          // no more items will arrive
	wake   chan struct{} // closed on the next change; nil until someone waits
}

// append adds items and wakes every waiting subscriber. Once a windowed
// stream holds 2*keep items, the latest keep move to a fresh array: O(1)
// amortized, and subscribers still reading the old array (since hands
// out sub-slices) never see a slot overwritten.
func (st *stream[T]) append(items ...T) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.items = append(st.items, items...)
	if st.keep > 0 && len(st.items) >= 2*st.keep {
		drop := len(st.items) - st.keep
		st.items = append(make([]T, 0, 2*st.keep), st.items[drop:]...)
		st.first += drop
	}
	st.wakeLocked()
}

// close marks the stream terminal and wakes every waiting subscriber.
func (st *stream[T]) close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.closed = true
	st.wakeLocked()
}

func (st *stream[T]) wakeLocked() {
	if st.wake != nil {
		close(st.wake)
		st.wake = nil
	}
}

// since returns the served items at absolute index >= from and the
// index of the first of them (start > from when from precedes the
// window), whether the stream is closed, and a channel that is closed
// on the next change.
func (st *stream[T]) since(from int) (items []T, start int, closed bool, wake <-chan struct{}) {
	st.mu.Lock()
	defer st.mu.Unlock()
	end := st.first + len(st.items)
	start = max(from, st.first)
	if st.keep > 0 {
		start = max(start, end-st.keep)
	}
	if start < end {
		items = st.items[start-st.first : len(st.items) : len(st.items)]
	}
	if st.wake == nil {
		st.wake = make(chan struct{})
	}
	return items, start, st.closed, st.wake
}

// serveStream is the service's one Server-Sent-Events writer. It starts
// at index 0, or just past a well-formed Last-Event-ID header, then
// follows live appends, one frame per item ("id: N", "event: " + the
// item's name, "data: " + its JSON), written by frame; it stops at the
// first frame that fails, which writes nothing for an item it cannot
// encode. Once st is closed a final "end" event carries end(), the
// entity's terminal status. A subscriber whose next index has left a
// windowed stream gets one "resync" frame instead of the lost items:
// resync returns its payload and which items that payload already
// covers, and no covered item is sent after it. Streams that keep every
// item pass a nil resync.
func serveStream[T any](s *Server, w http.ResponseWriter, r *http.Request, st *stream[T], frame func(w io.Writer, id int, item T) error, end func() any, resync func() (frame any, covers func(T) bool)) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	s.metrics.sseSubscribers.Inc()
	defer s.metrics.sseSubscribers.Dec()

	next := 0
	if last, err := strconv.Atoi(r.Header.Get("Last-Event-ID")); err == nil && last >= 0 && last < math.MaxInt {
		next = last + 1
	}
	var covers func(T) bool // set by a resync until an uncovered item arrives
	for {
		items, start, closed, wake := st.since(next)
		if start > next {
			var frame any
			frame, covers = resync()
			for len(items) > 0 && covers(items[0]) {
				items = items[1:]
				start++
			}
			data, err := json.Marshal(frame)
			if err != nil {
				return
			}
			s.metrics.sseResyncs.Inc()
			fmt.Fprintf(w, "id: %d\nevent: resync\ndata: %s\n\n", start-1, data)
			fl.Flush()
		}
		next = start
		for _, item := range items {
			if covers != nil && covers(item) {
				next++
				continue
			}
			covers = nil
			if frame(w, next, item) != nil {
				return
			}
			next++
		}
		if len(items) > 0 {
			fl.Flush()
		}
		if closed {
			status, _ := json.Marshal(end())
			fmt.Fprintf(w, "event: end\ndata: %s\n\n", status)
			fl.Flush()
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// writeFrame writes one SSE frame carrying v's JSON, or nothing when v
// cannot be encoded.
func writeFrame(w io.Writer, id int, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, data)
	return err
}

// placedCircuit loads req's circuit from its single source and places
// it with the request's placement spec (defaults filled): the one
// construction site of job attempts, sessions, and their journal
// replays, so every re-run starts from the bit-identical placed circuit
// the original did. A job attempt runs the two halves apart, with its
// admission wait between them (admit.go).
func placedCircuit(req JobRequest) (*rapids.Circuit, error) {
	c, err := loadCircuit(req)
	if err == nil {
		placeCircuit(c, req)
	}
	return c, err
}

// loadCircuit loads req's circuit from its single source.
func loadCircuit(req JobRequest) (*rapids.Circuit, error) {
	if req.Generate != "" {
		return rapids.Generate(req.Generate)
	}
	format, err := rapids.ParseFormat(req.Format)
	if err != nil {
		return nil, err
	}
	return rapids.LoadReader(strings.NewReader(req.Netlist), format, "netlist")
}

// placeCircuit places c with req's placement spec, defaults filled.
func placeCircuit(c *rapids.Circuit, req JobRequest) {
	var place PlaceSpec
	if req.Place != nil {
		place = *req.Place
	}
	p := place.withDefaults()
	c.Place(rapids.PlaceSeed(p.Seed), rapids.PlaceMoves(p.Moves), rapids.PlaceAspect(p.Aspect))
}

// follower is one entity's replay state: it folds the entity's journal
// entries after the opening one, in append order.
type follower interface {
	follow(e journal.Entry) error
}

// foldJournal reads Config.Journal as one fold per entity: an opening
// entry (accepted, session-opened) creates the entity's replay state
// through open, and every later entry for its id folds into that state.
// States come back in opening order, and s.seq moves past every
// journaled id so new ids never collide with recovered ones.
func (s *Server) foldJournal(open func(e journal.Entry) (follower, error)) ([]follower, error) {
	byID := make(map[string]follower)
	var order []follower
	err := s.cfg.Journal.Replay(func(e journal.Entry) error {
		if e.Op == journal.OpAccepted || e.Op == journal.OpSessionOpened {
			f, err := open(e)
			if err != nil {
				return err
			}
			byID[e.JobID] = f
			order = append(order, f)
			s.seq = max(s.seq, e.Seq)
			return nil
		}
		f, ok := byID[e.JobID]
		if !ok {
			noun, opening := "job", journal.OpAccepted
			if e.Op.Session() {
				noun, opening = "session", journal.OpSessionOpened
			}
			return fmt.Errorf("journal entry %s for %s %s precedes its %s entry", e.Op, noun, e.JobID, opening)
		}
		return f.follow(e)
	})
	return order, err
}
