package sta

import (
	"math"

	"repro/internal/network"
)

// undoLog holds what a logged batch overwrote in a Timing since its
// Incremental's checkpoint, so that Rollback can write the old values
// back instead of copying the whole Timing at every checkpoint (see
// "Checkpoint and rollback" in the package comment). While a Timing's
// undo field points at a log, every write an update makes to state that
// existed at the checkpoint first records the old value: an arrival or
// required time, a gate's net entry (load, wire entry, generation and
// pin slots), a net-arena slot or a pin-table slot. A value overwritten
// twice is logged twice; rewind replays each log newest first, so the
// oldest entry, the checkpoint's value, lands last. Anything an update
// appends past the checkpoint's lengths needs no entry: rewind truncates
// it away.
type undoLog struct {
	// The checkpoint's array lengths and scalars.
	gates, arena, pins int
	gen                uint32
	version            uint64
	critical, lateness float64

	edgeLog []edgeUndo
	gateLog []gateUndo
	slotLog []slotUndo
	pinLog  []pinUndo
}

// edgeUndo is one gate's old arrival, or its old required time.
type edgeUndo struct {
	id       int32
	required bool
	old      Edge
}

// gateUndo is one gate's old per-gate entries other than its arrival
// and required time.
type gateUndo struct {
	load   float64
	wire   wireEntry
	id     int32
	netGen uint32
	pinOff int32
	pinN   uint8
}

// slotUndo is one net-arena slot's old sink and delay.
type slotUndo struct {
	k     int32
	sink  *network.Gate
	delay float64
}

// pinUndo is one pin-table slot's old tag and delay.
type pinUndo struct {
	k     int32
	gen   uint32
	delay float64
}

// arm starts logging t's writes into l, from the state t holds now.
func (t *Timing) arm(l *undoLog) {
	l.gates, l.arena, l.pins = len(t.arrival), len(t.netSinks), len(t.pinGen)
	l.gen, l.version = t.gen, t.version
	l.critical, l.lateness = t.CriticalDelay, t.Lateness
	l.clear()
	t.undo = l
}

// clear empties the log for the next batch against the same checkpoint.
func (l *undoLog) clear() {
	l.edgeLog = l.edgeLog[:0]
	l.gateLog = l.gateLog[:0]
	l.slotLog = l.slotLog[:0]
	l.pinLog = l.pinLog[:0]
}

// dropGates empties the log and clears the arena entries' sinks up to
// capacity.
func (l *undoLog) dropGates() {
	clear(l.slotLog[:cap(l.slotLog)])
	l.clear()
}

// setArrival writes gate id's arrival, first logging the old one when a
// logged batch changes its bits.
func (t *Timing) setArrival(id int, e Edge) {
	if l := t.undo; l != nil && id < l.gates && !sameBits(t.arrival[id], e) {
		l.edgeLog = append(l.edgeLog, edgeUndo{id: int32(id), old: t.arrival[id]})
	}
	t.arrival[id] = e
}

// setRequired writes gate id's required time, first logging the old one
// when a logged batch changes its bits.
func (t *Timing) setRequired(id int, e Edge) {
	if l := t.undo; l != nil && id < l.gates && !sameBits(t.required[id], e) {
		l.edgeLog = append(l.edgeLog, edgeUndo{id: int32(id), required: true, old: t.required[id]})
	}
	t.required[id] = e
}

// sameBits reports whether a and b are bit for bit equal.
func sameBits(a, b Edge) bool {
	return math.Float64bits(a.Rise) == math.Float64bits(b.Rise) && math.Float64bits(a.Fall) == math.Float64bits(b.Fall)
}

// saveGate records gate id's load, wire entry, net generation and pin
// slots before a logged batch overwrites any of them.
func (t *Timing) saveGate(id int) {
	if l := t.undo; l != nil && id < l.gates {
		l.gateLog = append(l.gateLog, gateUndo{
			load: t.load[id], wire: t.wire[id], id: int32(id),
			netGen: t.netGen[id], pinOff: t.pinOff[id], pinN: t.pinN[id],
		})
	}
}

// saveSlots records net-arena slots [off, end) before a logged batch
// overwrites them.
func (t *Timing) saveSlots(off, end int) {
	l := t.undo
	if l == nil {
		return
	}
	for k := off; k < min(end, l.arena); k++ {
		l.slotLog = append(l.slotLog, slotUndo{int32(k), t.netSinks[k], t.netDelays[k]})
	}
}

// savePin records pin-table slot k before a logged batch overwrites it.
func (t *Timing) savePin(k int) {
	if l := t.undo; l != nil && k < l.pins {
		l.pinLog = append(l.pinLog, pinUndo{int32(k), t.pinGen[k], t.pinDelay[k]})
	}
}

// saveTags records every pin tag and net generation before the
// generation wrap clears them.
func (t *Timing) saveTags() {
	l := t.undo
	if l == nil {
		return
	}
	for k := range l.pins {
		if t.pinGen[k] != 0 {
			t.savePin(k)
		}
	}
	for id := range l.gates {
		if t.netGen[id] != 0 {
			t.saveGate(id)
		}
	}
}

// rewind writes l back into t, newest entry first, truncates every
// array to its checkpoint length, and empties l: t, the logged Timing or
// a copy of it, then holds exactly the checkpoint's state. The
// generation counter does not go back, so no restored tag can alias a
// net built later; only across a wrap, where every tag was logged and is
// restored, does it return to the checkpoint's.
func (t *Timing) rewind(l *undoLog) {
	for i := len(l.pinLog) - 1; i >= 0; i-- {
		e := l.pinLog[i]
		t.pinGen[e.k], t.pinDelay[e.k] = e.gen, e.delay
	}
	for i := len(l.slotLog) - 1; i >= 0; i-- {
		e := l.slotLog[i]
		t.netSinks[e.k], t.netDelays[e.k] = e.sink, e.delay
	}
	for i := len(l.gateLog) - 1; i >= 0; i-- {
		e := l.gateLog[i]
		t.load[e.id], t.wire[e.id] = e.load, e.wire
		t.netGen[e.id], t.pinOff[e.id], t.pinN[e.id] = e.netGen, e.pinOff, e.pinN
	}
	for i := len(l.edgeLog) - 1; i >= 0; i-- {
		if e := l.edgeLog[i]; e.required {
			t.required[e.id] = e.old
		} else {
			t.arrival[e.id] = e.old
		}
	}
	g := l.gates
	t.arrival, t.required, t.load, t.wire = t.arrival[:g], t.required[:g], t.load[:g], t.wire[:g]
	t.netGen, t.pinOff, t.pinN = t.netGen[:g], t.pinOff[:g], t.pinN[:g]
	t.netSinks, t.netDelays = t.netSinks[:l.arena], t.netDelays[:l.arena]
	t.pinGen, t.pinDelay = t.pinGen[:l.pins], t.pinDelay[:l.pins]
	t.gen = max(t.gen, l.gen)
	t.version, t.reqStale = l.version, false
	t.CriticalDelay, t.Lateness = l.critical, l.lateness
	l.clear()
}
