package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/rapids"
)

// span is one timed interval of a traced run. The spans of one op share
// its request id; Parent is 0 for the op's root span. Times are
// nanoseconds since the tracer's epoch.
type span struct {
	Workload string `json:"workload"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Request  string `json:"request"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so untraced ops pass nil and pay only a nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records the span [start, end] and returns its id (0 on a nil
// tracer).
func (t *tracer) add(parent int, req, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Request: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// addEvents rebuilds an Optimize run's Event stream as child spans of
// parent: each event covers [previous event, previous event + Elapsed],
// starting at from, the instant the run was entered.
func (t *tracer) addEvents(parent int, req string, from time.Time, evs []rapids.Event) {
	for _, ev := range evs {
		end := from.Add(ev.Elapsed)
		t.add(parent, req, eventSpanName(ev), from, end)
		from = end
	}
}

// eventSpanName maps an Event to the layer that did its work.
func eventSpanName(ev rapids.Event) string {
	switch ev.Kind {
	case rapids.EventStart:
		return "rapids.seed"
	case rapids.EventPhase:
		return "opt." + ev.Phase
	case rapids.EventVerify:
		return "sim.verify"
	default:
		return "rapids.done"
	}
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		s.Workload = workload
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

// childCover returns, for every span with children, how much of its
// interval the union of its children covers, each child clipped to the
// parent. Overlapping children count once.
func childCover(spans []span) map[int]time.Duration {
	byID := make(map[int]span, len(spans))
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if s.Parent == 0 || !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if lo < hi {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
		}
	}
	cover := make(map[int]time.Duration, len(kids))
	for id, iv := range kids {
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var total int64
		curLo, curHi := iv[0][0], iv[0][1]
		for _, x := range iv[1:] {
			if x[0] > curHi {
				total += curHi - curLo
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		total += curHi - curLo
		cover[id] = time.Duration(total)
	}
	return cover
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its children cover.
func selfTimes(spans []span) map[int]time.Duration {
	cover := childCover(spans)
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - cover[s.ID]
	}
	return self
}

// addSelfTimes adds self.<span>_ms for every span name: its summed
// self time per traced op. Over an op's spans these add up to the op's
// wall time, which makes them the run's layer split.
func addSelfTimes(r *report, spans []span, ops int) {
	self := selfTimes(spans)
	byName := make(map[string]float64)
	for _, s := range spans {
		byName[s.Name] += ms(self[s.ID]) / float64(max(ops, 1))
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.add("self."+name+"_ms", byName[name], "ms", ops)
	}
}
