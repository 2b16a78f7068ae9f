package server

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/rapids"
	"repro/rapids/server/journal"
)

// replayState folds one job's journal entries into the job during
// recovery, before the server serves or runs anything.
type replayState struct {
	j        *job
	terminal journal.Op // zero while the job was still live at crash time
	canceled bool       // a cancel-requested entry with no terminal entry yet
}

func (st *replayState) follow(e journal.Entry) error {
	j := st.j
	switch e.Op {
	case journal.OpStarted, journal.OpRetried:
		j.attempt = e.Attempt
	case journal.OpCancelRequested:
		st.canceled = true
	case journal.OpDone, journal.OpCanceled, journal.OpFailed:
		// A reborn job reports its original run — identity, outcome,
		// and timings — not the replay's.
		st.terminal = e.Op
		j.errmsg = e.Error
		j.circuit, j.gates, j.cached = e.Circuit, e.Gates, e.Cached
		j.queuedFor, j.ranFor, j.admissionWait, j.enqueuedAt = e.QueuedFor, e.RanFor, e.AdmissionWait, time.Time{}
		j.result = nil
		if len(e.Result) > 0 {
			var res rapids.Result
			if err := json.Unmarshal(e.Result, &res); err != nil {
				return fmt.Errorf("terminal entry for job %s: bad result payload: %w", e.JobID, err)
			}
			j.result = &res
		}
	default:
		return fmt.Errorf("unknown journal op %q for job %s", e.Op, e.JobID)
	}
	return nil
}

// sessionReplay folds one ECO session's journal entries during
// recovery: the open request plus every applied edit batch, in order.
type sessionReplay struct {
	id, key string
	seq     int
	req     SessionRequest
	batches []editWire
	closed  bool
}

func (st *sessionReplay) follow(e journal.Entry) error {
	switch e.Op {
	case journal.OpSessionEdit:
		var wire editWire
		if err := json.Unmarshal(e.Request, &wire); err != nil {
			return fmt.Errorf("session-edit entry for session %s: bad payload: %w", e.JobID, err)
		}
		st.batches = append(st.batches, wire)
	case journal.OpSessionClosed:
		st.closed = true
	default:
		return fmt.Errorf("unknown journal op %q for session %s", e.Op, e.JobID)
	}
	return nil
}

// openReplay starts the fold of one job or session at its opening
// entry, which carries the full request.
func openReplay(e journal.Entry) (follower, error) {
	var req JobRequest
	if err := json.Unmarshal(e.Request, &req); err != nil {
		noun := "job"
		if e.Op.Session() {
			noun = "session"
		}
		return nil, fmt.Errorf("%s entry for %s %s: bad request payload: %w", e.Op, noun, e.JobID, err)
	}
	if e.Op.Session() {
		return &sessionReplay{id: e.JobID, key: e.Key, seq: e.Seq, req: req}, nil
	}
	return &replayState{j: newJob(e.JobID, e.Key, e.Seq, req)}, nil
}

// replayJournal rebuilds the server's job and session tables from
// Config.Journal before the workers start. Terminal jobs are reborn
// with their recorded results — done results re-seed the cache — and
// jobs that were queued or running at crash time are re-enqueued under
// their original ids. Determinism per seed makes the re-run equivalent
// to the one the crash interrupted: the completed result is
// bit-identical. Sessions without a journaled close were live at crash
// time and are rebuilt by re-folding their edit log; closed sessions
// are dropped (their circuits died with the process; nothing is
// recoverable or owed). Called from newServer; replay errors fail New.
func (s *Server) replayJournal() error {
	if s.cfg.Journal == nil {
		return nil
	}
	states, err := s.foldJournal(openReplay)
	if err != nil {
		return err
	}
	var jobs, requeued, reopened, dropped int
	for _, st := range states {
		switch st := st.(type) {
		case *replayState:
			jobs++
			if s.recoverJob(st) {
				requeued++
			}
		case *sessionReplay:
			if st.closed {
				dropped++
				s.metrics.sessionsReplayed.With("dropped").Inc()
				continue
			}
			ls, err := rebuildSession(st)
			if err != nil {
				return fmt.Errorf("session %s: %w", st.id, err)
			}
			s.sessions.addLocked(st.id, ls)
			s.metrics.sessionsReplayed.With("reopened").Inc()
			s.metrics.sessionsActive.Inc()
			reopened++
		}
	}
	if jobs > 0 {
		s.logf("server: journal replayed: %d jobs (%d terminal, %d re-enqueued)",
			jobs, jobs-requeued, requeued)
	}
	if reopened+dropped > 0 {
		s.logf("server: journal replayed: %d sessions reopened, %d dropped", reopened, dropped)
	}
	return nil
}

// recoverJob registers one replayed job: re-enqueued if it was live at
// crash time (reporting true), reborn terminal otherwise.
func (s *Server) recoverJob(st *replayState) (requeued bool) {
	j := st.j
	j.recovered = true
	s.jobs.addLocked(j.id, j)
	if st.terminal == "" {
		// Live at crash time: re-run. A pending cancel intent is
		// honored by re-canceling the context — the worker turns the
		// job canceled without running it.
		if st.canceled {
			j.cancel()
		}
		s.queue.push(j)
		s.metrics.journalReplayed.With("requeued").Inc()
		return true
	}
	s.metrics.journalReplayed.With("reborn").Inc()
	state := StateFailed
	switch st.terminal {
	case journal.OpDone:
		state = StateDone
		if j.result != nil {
			j.events.append(doneEvent(j.circuit, j.result))
			// Write-through like a fresh run: rebirth re-seeds the local
			// tier *and* the shared store, so a fleet peer can hit on a
			// result this replica recovered from its journal.
			s.publishResult(j.key, j.circuit, j.gates, j.result)
		}
	case journal.OpCanceled:
		state = StateCanceled
	}
	j.finish(state, j.result, j.errmsg)
	// Count the rebirth as a completion so the reconciliation invariant
	// (DESIGN.md §5b) balances across a restart: journal_replayed{reborn}
	// on the submission side, a terminal state here.
	s.metrics.jobsCompleted.With(state).Inc()
	return false
}

// rebuildSession reconstructs one live session from its replay fold.
// A batch that was journaled but no longer applies is journal
// corruption (the journal only records batches that applied), so any
// error here fails New.
func rebuildSession(st *sessionReplay) (*liveSession, error) {
	ls, err := newLiveSession(st.req)
	if err != nil {
		return nil, fmt.Errorf("rebuilding circuit: %w", err)
	}
	ls.id, ls.key, ls.seq, ls.recovered = st.id, st.key, st.seq, true
	for i, wire := range st.batches {
		edits, err := wire.edits()
		var deltas []*rapids.Delta
		if err == nil {
			deltas, _, err = ls.apply(edits, wire.Reoptimize, nil)
		}
		if err != nil {
			ls.sess.Close()
			return nil, fmt.Errorf("replaying edit batch %d: %w", i, err)
		}
		ls.edits += len(edits)
		ls.deltas.append(deltas...)
	}
	return ls, nil
}
