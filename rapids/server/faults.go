package server

import (
	"context"
	"fmt"

	"repro/rapids/server/journal"
)

// FaultHooks is the failure-injection seam of the chaos tests
// (DESIGN.md §5a): every field is optional, production servers leave
// the whole struct nil, and no build tag is involved — the cost is one
// nil check per site. Hooks run on server goroutines and must be
// race-clean.
type FaultHooks struct {
	// BeforeAttempt runs in a worker immediately before an optimization
	// attempt (attempt is 1-based). Tests panic here to simulate a
	// crashing worker, or block on ctx.Done() to simulate a stuck run —
	// ctx carries the job's deadline, so a blocked hook exercises the
	// timeout path without a slow circuit.
	BeforeAttempt func(ctx context.Context, jobID string, attempt int)
	// JournalAppend intercepts every journal write; a non-nil error is
	// treated exactly like a failed append (the entry is not written
	// and the server turns unready).
	JournalAppend func(e journal.Entry) error
	// CorruptResult, when it returns true for a cache key, makes the
	// server write silently corrupted sealed bytes into its local
	// result tier (the shared store still gets the pristine entry).
	// The tier's integrity checksum must catch it on the next lookup,
	// which falls through to the shared store or a re-run.
	CorruptResult func(key string) bool
	// Reoptimize, when it returns an error, fails the re-optimization
	// pass of a live session's edit batch after the batch's edits
	// applied, as a failing Session.Reoptimize would. Journal replay
	// does not consult it.
	Reoptimize func(sessionID string) error
}

// WorkerPanicError is the structured error of an optimization attempt
// that panicked. The panic is confined to the attempt: the worker
// survives, only this job fails (or retries, if attempts remain), and
// the error lands in JobStatus.Error and the journal.
type WorkerPanicError struct {
	JobID   string
	Attempt int
	Value   string
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("job %s attempt %d: worker panic: %s", e.JobID, e.Attempt, e.Value)
}
