package server

import (
	"context"
	"slices"
	"sync"

	"repro/internal/metrics"
)

// admission is the size gate between loading a job's circuit and placing
// it (DESIGN.md §5). A job's peak live heap tracks its gate count, so
// gates are a job's memory weight, and the largest circuit this server
// has started — the mark — is its memory budget: a job is admitted once
// its gates plus those of every admitted job fit within the mark. A
// circuit larger than every earlier one raises the mark and is admitted
// only when no job is running. The budget is measured, not configured:
// concurrency never holds more job memory than one largest job did.
//
// Admission is first come, first served: a job joins the line when it
// arrives and only the head of the line is ever admitted, so a large
// job is never overtaken by later small ones.
//
// The admission owns its gauges, like jobQueue, so every path that
// admits, releases or abandons a wait keeps them current.
type admission struct {
	mu      sync.Mutex
	mark    int       // largest circuit admitted so far, in gates
	gates   int       // gates of the admitted jobs still placing or optimizing
	running int       // admitted jobs
	line    []*ticket // waiting jobs, arrival order

	waitingG *metrics.Gauge
	gatesG   *metrics.Gauge
	markG    *metrics.Gauge
}

// ticket is one waiting job's place in line.
type ticket struct {
	gates int
	ready chan struct{} // closed on admission
}

func newAdmission(waiting, gates, mark *metrics.Gauge) *admission {
	return &admission{waitingG: waiting, gatesG: gates, markG: mark}
}

// admit blocks until a job of the given gate count is admitted and
// reports true, or reports false once ctx ends first — or ends while the
// job is being admitted; the job then holds nothing. An admitted job
// calls release with the same count when it stops placing and
// optimizing. waited reports whether the job had to join the line.
func (a *admission) admit(ctx context.Context, gates int) (ok, waited bool) {
	a.mu.Lock()
	if len(a.line) == 0 && a.fitsLocked(gates) {
		a.startLocked(gates)
		a.mu.Unlock()
		return true, false
	}
	t := &ticket{gates: gates, ready: make(chan struct{})}
	a.line = append(a.line, t)
	a.waitingG.Set(int64(len(a.line)))
	a.mu.Unlock()

	select {
	case <-t.ready:
	case <-ctx.Done():
	}
	// A select picks at random when both are ready, so a job cancelled
	// as the line reached it is checked here, not left to the pick.
	if ctx.Err() == nil {
		return true, true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	select {
	case <-t.ready:
		// Admitted as ctx ended: hand the capacity straight back.
		a.releaseLocked(gates)
	default:
		i := slices.Index(a.line, t)
		a.line = slices.Delete(a.line, i, i+1)
		// The line's new head may fit now.
		a.admitLineLocked()
	}
	return false, true
}

// release returns an admitted job's gates and admits whoever now fits.
func (a *admission) release(gates int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.releaseLocked(gates)
}

// fitsLocked reports whether a job of the given gate count may start
// now: alone, or within the mark beside every admitted job.
func (a *admission) fitsLocked(gates int) bool {
	return a.running == 0 || a.gates+gates <= a.mark
}

func (a *admission) startLocked(gates int) {
	a.running++
	a.gates += gates
	a.mark = max(a.mark, gates)
	a.gatesG.Set(int64(a.gates))
	a.markG.Set(int64(a.mark))
}

func (a *admission) releaseLocked(gates int) {
	a.running--
	a.gates -= gates
	a.gatesG.Set(int64(a.gates))
	a.admitLineLocked()
}

// admitLineLocked admits jobs from the head of the line while the head
// fits; the first that does not fit blocks everyone behind it.
func (a *admission) admitLineLocked() {
	for len(a.line) > 0 && a.fitsLocked(a.line[0].gates) {
		t := a.line[0]
		a.line[0] = nil
		a.line = a.line[1:]
		a.startLocked(t.gates)
		close(t.ready)
	}
	a.waitingG.Set(int64(len(a.line)))
}

// state reports the mark, the admitted gates and the jobs in line, for
// /healthz.
func (a *admission) state() (mark, gates, waiting int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.mark, a.gates, len(a.line)
}
