// Package journal persists the rapidsd job life cycle so a crashed or
// redeployed daemon can recover every accepted job. The server appends
// one Entry per life-cycle transition (accepted, started, retried,
// cancel-requested, done, canceled, failed) and replays the log on
// startup: jobs whose last entry is non-terminal are re-enqueued under
// their original IDs, terminal jobs are reborn with their journaled
// results. Because optimization runs are deterministic per seed
// (DESIGN.md §5), a replayed job is guaranteed to produce a result
// bit-identical to the one the crash lost — recovery is re-execution,
// not reconciliation.
//
// Two implementations ship: File, an append-only JSONL file whose
// writes reach the kernel before the submission is acknowledged (a
// SIGKILL loses nothing; machine-crash durability would additionally
// need fsync per append, which File trades away for latency), and Mem,
// an in-memory log for tests that survives server re-construction
// within one process.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Op is one job life-cycle transition.
type Op string

const (
	// OpAccepted records a validated submission; the entry carries the
	// full request payload and the registration sequence number.
	OpAccepted Op = "accepted"
	// OpStarted records the beginning of an optimization attempt.
	OpStarted Op = "started"
	// OpRetried records a transient failure (worker panic, job
	// timeout) that will be re-attempted after backoff.
	OpRetried Op = "retried"
	// OpCancelRequested records a DELETE on a live job, so the intent
	// survives a crash that races the worker.
	OpCancelRequested Op = "cancel-requested"
	// OpDone, OpCanceled, and OpFailed are the terminal transitions;
	// done and canceled entries carry the (final or best-so-far)
	// result.
	OpDone     Op = "done"
	OpCanceled Op = "canceled"
	OpFailed   Op = "failed"

	// Session ops record the interactive ECO session life cycle
	// (DESIGN.md §5d), keyed by the session id in JobID. An opened entry
	// carries the full open request; each session-edit entry carries one
	// applied edit batch. Replay rebuilds every session that has no
	// session-closed entry by re-applying its batches in order — the
	// facade's determinism contract makes the rebuilt session
	// bit-identical to the one the crash interrupted.
	OpSessionOpened Op = "session-opened"
	OpSessionEdit   Op = "session-edit"
	OpSessionClosed Op = "session-closed"
)

// Session reports whether the op belongs to the session life cycle.
func (o Op) Session() bool {
	return o == OpSessionOpened || o == OpSessionEdit || o == OpSessionClosed
}

// Terminal reports whether the op ends a job's life cycle.
func (o Op) Terminal() bool { return o == OpDone || o == OpCanceled || o == OpFailed }

// Entry is one journal line. Request and Result stay raw JSON here so
// the package depends on no server types; the server owns both shapes.
type Entry struct {
	Time    time.Time `json:"time"`
	Op      Op        `json:"op"`
	JobID   string    `json:"job_id"`
	Key     string    `json:"key,omitempty"`
	Seq     int       `json:"seq,omitempty"`
	Attempt int       `json:"attempt,omitempty"`
	Error   string    `json:"error,omitempty"`
	Circuit string    `json:"circuit,omitempty"`
	Gates   int       `json:"gates,omitempty"`
	// Cached marks a done entry served from the result cache.
	Cached bool `json:"cached,omitempty"`
	// QueuedFor, RanFor and AdmissionWait record, on terminal entries,
	// the job's accumulated queue-wait, run and admission-wait time
	// (nanoseconds) so a reborn job reports the same timings the
	// original did (the JobStatus fields of those names survive
	// restarts).
	QueuedFor     time.Duration   `json:"queued_for_ns,omitempty"`
	RanFor        time.Duration   `json:"ran_for_ns,omitempty"`
	AdmissionWait time.Duration   `json:"admission_wait_ns,omitempty"`
	Request       json.RawMessage `json:"request,omitempty"`
	Result        json.RawMessage `json:"result,omitempty"`
}

// Journal is the persistence seam of rapids/server. Implementations
// must be safe for concurrent Append calls; Replay is called once, on
// startup, before the first Append.
type Journal interface {
	// Replay streams every recorded entry in append order.
	Replay(fn func(Entry) error) error
	// Append durably records one entry.
	Append(e Entry) error
	// Close releases the journal; Append must not be called after.
	Close() error
}

// File is the append-only JSONL implementation.
type File struct {
	mu sync.Mutex
	f  *os.File
}

// OpenFile opens (creating if needed) the journal at path. Replay
// tolerates a truncated final line — the signature of a crash
// mid-append, including one that lost only its newline — by truncating
// the file back to the last whole entry; a corrupt line with valid
// entries after it is a hard error.
func OpenFile(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &File{f: f}, nil
}

// Replay implements Journal.
func (j *File) Replay(fn func(Entry) error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	var (
		off     int64 // end of the last whole entry
		badLine []byte
		r       = bufio.NewReader(j.f)
	)
	for {
		// Lines are read with their newline, so off counts every byte,
		// a carriage return before the newline included. A final line
		// without its newline is a torn append, whatever it holds.
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		if badLine != nil {
			return fmt.Errorf("journal: corrupt entry %q followed by more entries", badLine)
		}
		if len(bytes.TrimSpace(line)) == 0 {
			off += int64(len(line))
			continue
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			// Only acceptable as the final (torn) line.
			badLine = bytes.TrimSuffix(line, []byte("\n"))
			continue
		}
		if err := fn(e); err != nil {
			return err
		}
		off += int64(len(line))
	}
	// Drop a torn tail so the next Append starts on a clean line.
	if err := j.f.Truncate(off); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := j.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Append implements Journal. The write reaches the kernel before
// Append returns, so a killed process loses nothing already accepted.
func (j *File) Append(e Entry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Close implements Journal, syncing the file first.
func (j *File) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// Mem is the in-memory implementation for tests: entries appended
// through one server incarnation replay into the next, simulating a
// crash-and-restart without a filesystem or a second process.
type Mem struct {
	mu      sync.Mutex
	entries []Entry
}

// NewMem returns an empty in-memory journal.
func NewMem() *Mem { return &Mem{} }

// Replay implements Journal.
func (m *Mem) Replay(fn func(Entry) error) error {
	m.mu.Lock()
	snap := append([]Entry(nil), m.entries...)
	m.mu.Unlock()
	for _, e := range snap {
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}

// Append implements Journal.
func (m *Mem) Append(e Entry) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = append(m.entries, e)
	return nil
}

// Close implements Journal; a Mem journal survives Close so a test can
// hand it to the next server incarnation.
func (m *Mem) Close() error { return nil }

// Entries returns a copy of the log, for assertions.
func (m *Mem) Entries() []Entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Entry(nil), m.entries...)
}
