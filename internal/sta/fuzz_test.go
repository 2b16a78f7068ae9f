package sta_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/sta"
)

// byteReader hands out fuzz bytes, then zeros once they run out.
type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) next() int {
	if r.pos >= len(r.data) {
		return 0
	}
	r.pos++
	return int(r.data[r.pos-1])
}

func (r *byteReader) more() bool { return r.pos < len(r.data) }

var fuzzTypes = []logic.GateType{logic.Inv, logic.Buf, logic.Nand, logic.Nor, logic.Xor, logic.Xnor}

// fuzzNet builds a small placed, sized DAG from the fuzz bytes: fanins
// pick any earlier gate (repeats allowed, so a driver may feed one sink
// through several pins), one gate may stay unplaced, every sink-less gate
// is a primary output, and a flag byte pins boundary conditions.
func fuzzNet(r *byteReader) (*network.Network, *sta.Bounds) {
	n := network.New("fuzz")
	var all []*network.Gate
	for i, npi := 0, 1+r.next()%4; i < npi; i++ {
		all = append(all, n.AddInput(fmt.Sprintf("i%d", i)))
	}
	for i, ng := 0, 1+r.next()%24; i < ng; i++ {
		typ := fuzzTypes[r.next()%len(fuzzTypes)]
		k := 1
		if !typ.IsUnary() {
			k = 2 + r.next()%(library.MaxFanin-1)
		}
		fanins := make([]*network.Gate, k)
		for j := range fanins {
			fanins[j] = all[r.next()%len(all)]
		}
		g := n.AddGate(fmt.Sprintf("g%d", i), typ, fanins...)
		g.SizeIdx = r.next() % library.NumSizes
		all = append(all, g)
	}
	unplaced := r.next() % 8 // 0 leaves one gate unplaced (zero-wire nets)
	for i, g := range all {
		g.X, g.Y, g.Placed = float64(r.next()*7), float64(r.next()*5), unplaced != 0 || i != len(all)-1
		if !g.IsInput() && (g.NumFanouts() == 0 || r.next()%5 == 0) {
			n.MarkOutput(g)
		}
	}
	if r.next()%2 == 0 {
		return n, nil
	}
	bd := &sta.Bounds{
		PIArrival:  map[*network.Gate]sta.Edge{},
		PORequired: map[*network.Gate]sta.Edge{},
		POLoad:     map[*network.Gate]float64{},
	}
	for _, g := range all {
		switch {
		case g.IsInput():
			bd.PIArrival[g] = sta.Edge{Rise: float64(r.next()) / 100, Fall: float64(r.next()) / 100}
		case g.PO:
			bd.PORequired[g] = sta.Edge{Rise: float64(r.next()) / 50, Fall: float64(r.next()) / 50}
			bd.POLoad[g] = float64(r.next()%16-4) / 1000
		}
	}
	return n, bd
}

// fuzzEdit applies one random structural or sizing edit through the
// event layer. Edits that would close a cycle are undone in the same
// batch, which the timer must absorb like any other no-op batch.
func fuzzEdit(r *byteReader, n *network.Network) string {
	gates := n.GateSlice()
	var pins []network.Pin
	var cells []*network.Gate
	for _, g := range gates {
		for j := range g.Fanins() {
			pins = append(pins, network.Pin{Gate: g, Index: j})
		}
		if !g.IsInput() {
			cells = append(cells, g)
		}
	}
	if len(pins) == 0 {
		return "none"
	}
	pick := func() network.Pin { return pins[r.next()%len(pins)] }
	switch r.next() % 5 {
	case 0:
		a, b := pick(), pick()
		n.SwapPins(a, b)
		if n.CheckAcyclic() != nil {
			n.SwapPins(a, b)
			return "swap+undo"
		}
		return "swap"
	case 1:
		n.SetSize(cells[r.next()%len(cells)], r.next()%library.NumSizes)
		return "resize"
	case 2:
		inv := n.InsertInverter(pick())
		inv.X, inv.Y, inv.Placed = float64(r.next()*7), float64(r.next()*5), true
		return "inverter"
	case 3:
		p, d := pick(), gates[r.next()%len(gates)]
		old := p.Driver()
		n.ReplaceFanin(p.Gate, p.Index, d)
		if n.CheckAcyclic() != nil {
			n.ReplaceFanin(p.Gate, p.Index, old)
		}
		return fmt.Sprintf("rewire+sweep(%d)", n.Sweep())
	default:
		// Widen or narrow a multi-input gate: its pin count changes, so
		// the pin table must re-slot it.
		g := cells[r.next()%len(cells)]
		if g.Type.IsUnary() {
			return "none"
		}
		old := append([]*network.Gate(nil), g.Fanins()...)
		fanins := append([]*network.Gate(nil), old...)
		if len(fanins) < library.MaxFanin && r.next()%2 == 0 {
			fanins = append(fanins, gates[r.next()%len(gates)])
		} else if len(fanins) > 2 {
			fanins = fanins[1:]
		}
		n.SetFanins(g, fanins)
		if n.CheckAcyclic() != nil {
			n.SetFanins(g, old)
		}
		return fmt.Sprintf("fanins(%d)", g.NumFanins())
	}
}

// fuzzUndoableEdit applies one random edit that can be undone exactly —
// a pin rewire, a pin swap, a resize, or an inserted inverter — and
// returns it with its undo. Edits that would close a cycle are undone at
// once.
func fuzzUndoableEdit(r *byteReader, n *network.Network) (string, func()) {
	gates := n.GateSlice()
	var pins []network.Pin
	var cells []*network.Gate
	for _, g := range gates {
		for j := range g.Fanins() {
			pins = append(pins, network.Pin{Gate: g, Index: j})
		}
		if !g.IsInput() {
			cells = append(cells, g)
		}
	}
	if len(pins) == 0 {
		return "none", func() {}
	}
	pick := func() network.Pin { return pins[r.next()%len(pins)] }
	rewire := func(p network.Pin, d *network.Gate) func() {
		old := p.Driver()
		pos := n.ReplaceFaninAt(p.Gate, p.Index, d)
		return func() { n.UndoReplaceFanin(p.Gate, p.Index, old, pos) }
	}
	switch r.next() % 4 {
	case 0:
		p := pick()
		undo := rewire(p, gates[r.next()%len(gates)])
		if n.CheckAcyclic() != nil {
			undo()
			return "rewire+undo", func() {}
		}
		return "rewire", undo
	case 1:
		a, b := pick(), pick()
		da, db := a.Driver(), b.Driver()
		ua := rewire(a, db)
		ub := rewire(b, da)
		undo := func() { ub(); ua() }
		if n.CheckAcyclic() != nil {
			undo()
			return "swap+undo", func() {}
		}
		return "swap", undo
	case 2:
		g := cells[r.next()%len(cells)]
		old := g.SizeIdx
		n.SetSize(g, r.next()%library.NumSizes)
		return "resize", func() { n.SetSize(g, old) }
	default:
		p := pick()
		inv := n.AddGate(n.FreshName("u"), logic.Inv, p.Driver())
		inv.X, inv.Y, inv.Placed = float64(r.next()*7), float64(r.next()*5), true
		undo := rewire(p, inv)
		return "inverter", func() { undo(); n.RemoveGate(inv) }
	}
}

// timingReads returns, as bits, everything a reader of tm can observe
// about n: the scalars, every live gate's arrival, required time, load
// and slack, and every pin's wire delay through both the pin table and
// the scan, with whether the table holds it.
func timingReads(n *network.Network, tm *sta.Timing) []uint64 {
	bits := func(xs ...float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	out := bits(tm.Clock, tm.CriticalDelay, tm.Lateness)
	n.Gates(func(g *network.Gate) {
		a, q := tm.Arrival(g), tm.Required(g)
		out = append(out, bits(a.Rise, a.Fall, q.Rise, q.Fall, tm.Load(g), tm.Slack(g))...)
		for j, d := range g.Fanins() {
			hit := uint64(0)
			if sta.PinTableHit(tm, d, g, j) {
				hit = 1
			}
			out = append(out, append(bits(tm.PinWireDelay(d, g, j), tm.WireDelay(d, g)), hit)...)
		}
	})
	return out
}

// timerReads is timingReads of tm plus each live gate's logic level in
// inc, which a reader sees only in what later updates cost.
func timerReads(n *network.Network, inc *sta.Incremental, tm *sta.Timing) []uint64 {
	out := timingReads(n, tm)
	n.Gates(func(g *network.Gate) { out = append(out, uint64(sta.Level(inc, g))) })
	return out
}

// requireReads asserts that inc, whose view is tm, reads exactly what it
// read when want was taken.
func requireReads(t testing.TB, step string, n *network.Network, inc *sta.Incremental, tm *sta.Timing, want []uint64) {
	t.Helper()
	got := timerReads(n, inc, tm)
	if len(got) != len(want) {
		t.Fatalf("%s: %d reads after rollback, %d at the checkpoint", step, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: read %d is %v (bits %#x) after rollback, %v (bits %#x) at the checkpoint", step, i,
				math.Float64frombits(got[i]), got[i], math.Float64frombits(want[i]), want[i])
		}
	}
}

// FuzzIncrementalTiming drives an incremental timer on a random placed
// DAG through a random script of pin swaps, resizes, inverter
// insertions, rewires with sweeps and fanin-count changes. Before each
// Update the pin table must agree with the scan on the pending network;
// after it, the timing must be bit-identical to a fresh analysis, and
// every deleted gate must read as zero. A flag byte starts the
// net-generation counter just short of its wrap.
//
// A flag byte per step runs its edits inside one BeginBatch/EndBatch
// window, as the optimizer's apply loop does, or as one event round per
// mutator call: the timer must not tell the two apart. Another may make
// the step arrivals-only, as the optimizer's guard is: UpdateArrivals
// must match a fresh analysis in everything but required times, and the
// next Update — after further edits, sweeps included — finishes the
// merged backward work. A step may instead be a rejected batch:
// Checkpoint, undoable edits, Update or UpdateArrivals, the undos in
// reverse order (inside a window too, when the edits were), Rollback.
// The timer must then read bit for bit what it read at the checkpoint,
// and later steps must still match a fresh analysis. The top bits of the
// batch's edit-count byte pick one of four rejections: a plain one, two
// against one checkpoint (the optimizer's retry), one after a batch
// accepted against an earlier checkpoint, and two rolled back together,
// the second falling back to a full analysis while the log holds the
// first's entries.
func FuzzIncrementalTiming(f *testing.F) {
	f.Add([]byte{2, 5, 2, 0, 1, 0, 3, 0, 1, 2, 1, 2, 3, 1, 0, 0, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{3, 9, 2, 1, 0, 1, 1, 3, 2, 1, 3, 0, 4, 0, 2, 4, 2, 5, 4, 0, 3, 4, 0, 1, 1, 50, 60, 70, 80, 90, 1, 3, 1, 2, 2, 4, 3, 7, 4, 1, 0, 2})
	f.Add([]byte{1, 12, 3, 2, 0, 0, 2, 0, 0, 1, 1, 0, 1, 2, 5, 0, 2, 1, 3, 4, 7, 1, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 1, 200, 0, 0, 2, 3, 4, 0, 1, 2, 4, 2, 2, 1, 3, 3, 9})
	// A rolled-back rewire whose undo must restore required times.
	f.Add([]byte("110100200000000000000100"))
	// One seed per kind of rejection, by the byte after the prefix: a
	// logged batch; one rolled back, then one more edit rolled back to
	// the same checkpoint; one accepted, then another rejected against a
	// new checkpoint; a logged batch, then one that falls back to a full
	// analysis while the log holds the first's entries, both rolled back
	// from the copy the timer takes first.
	f.Add([]byte("110100200000000000001100"))
	f.Add([]byte("110100200000000000001100\x40"))
	f.Add([]byte("110100200000000000001100\x80\x01002"))
	f.Add([]byte("110100200000000000001100\xc0003"))
	// A rolled-back inverter insertion, which moved the levels the
	// rollback must restore.
	f.Add([]byte("10000000000010000000011000070"))
	// An arrivals-only step, then a rewire whose sweep deletes gates the
	// pending backward sweep was seeded with.
	f.Add([]byte(removalSeed))
	// Two arrivals-only steps whose pending seeds the next Update must
	// merge.
	f.Add([]byte("71210000210100000000000000000010001081100100010"))
	// An arrivals-only fallback whose deferred pass 3 runs only after a
	// further edit.
	f.Add([]byte("020000000200000000000000101090000010002"))
	// A windowed step: a resize and a rewire whose sweep deletes a gate
	// reach the timer as one event round.
	f.Add([]byte("110560505350011005908000009402000005235587005501070690"))
	f.Fuzz(func(t *testing.T, data []byte) {
		lib := library.Default035()
		r := &byteReader{data: data}
		n, bd := fuzzNet(r)
		inc := sta.NewIncrementalBounded(n, lib, float64(r.next())/40, bd)
		defer inc.Close()
		if r.next()%4 != 0 {
			inc.FullFraction = 2 // keep to dirty-region propagation
		}
		if r.next()%4 == 0 {
			sta.SetGeneration(inc.Timing(), math.MaxUint32-uint32(r.next()%64))
		}
		clock := inc.Timing().Clock
		requireMatch(t, "seed", n, lib, clock, inc.Timing())
		gates := n.GateSlice()
		for step := 0; step < 16 && r.more(); step++ {
			window := r.next()%2 == 1
			name := fmt.Sprintf("step %d", step)
			if window {
				name += " windowed"
			}
			if r.next()%3 == 0 {
				edit := func() (string, func()) { return fuzzUndoableEdit(r, n) }
				b := r.next()
				k, arrivalsOnly := 1+b%4, r.next()%2 == 0
				rejected[b/64](t, name, n, lib, clock, inc, edit, k, arrivalsOnly, window)
				continue
			}
			desc := ""
			inWindow(n, window, func() {
				for k := 1 + r.next()%3; k > 0; k-- {
					desc += fuzzEdit(r, n) + ","
				}
			})
			gates = append(gates, n.GateSlice()...)
			name += " (" + desc + ")"
			requirePinTable(t, name+" pending", n, inc.Timing())
			if r.next()%3 == 0 {
				requireArrivalsMatch(t, name+" arrivals only", n, lib, clock, inc.UpdateArrivals())
				continue
			}
			requireMatch(t, name, n, lib, clock, inc.Update())
			requireForgotten(t, name, n, inc.Timing(), gates)
		}
		requireMatch(t, "end", n, lib, clock, inc.Update())
		requireForgotten(t, "end", n, inc.Timing(), gates)
	})
}

// rolledBackBatch runs one rejected batch of k edits on inc: an Update
// that finishes any pending work, Checkpoint, the edits, an Update (or,
// when arrivalsOnly, an UpdateArrivals) that must match a fresh analysis,
// the undos in reverse order, and Rollback, after which every read must
// equal the checkpoint's. With window set, the edits run inside one
// batch window and the undos inside another.
func rolledBackBatch(t testing.TB, step string, n *network.Network, lib *library.Library, clock float64, inc *sta.Incremental, edit func() (string, func()), k int, arrivalsOnly, window bool) {
	t.Helper()
	want := checkpoint(t, step, n, lib, clock, inc)
	rejectBatch(t, step, n, lib, clock, inc, edit, k, arrivalsOnly, window, want)
	requireMatch(t, step, n, lib, clock, inc.Update())
}

// rolledBackTwice rejects two batches against one checkpoint, as the
// optimizer's retry does: k edits, rolled back, then one more edit,
// rolled back to the same checkpoint.
func rolledBackTwice(t testing.TB, step string, n *network.Network, lib *library.Library, clock float64, inc *sta.Incremental, edit func() (string, func()), k int, arrivalsOnly, window bool) {
	t.Helper()
	want := checkpoint(t, step, n, lib, clock, inc)
	rejectBatch(t, step, n, lib, clock, inc, edit, k, arrivalsOnly, window, want)
	rejectBatch(t, step+" retry", n, lib, clock, inc, edit, 1, arrivalsOnly, window, want)
	requireMatch(t, step, n, lib, clock, inc.Update())
}

// acceptedThenRolledBack keeps a batch of k edits made after a
// checkpoint and commits it, as the optimizer does with a batch its
// guard accepts, after which a Rollback must panic; then it rejects a
// batch against a new checkpoint, which must restore the state after the
// accepted batch, not the one before it.
func acceptedThenRolledBack(t testing.TB, step string, n *network.Network, lib *library.Library, clock float64, inc *sta.Incremental, edit func() (string, func()), k int, arrivalsOnly, window bool) {
	t.Helper()
	checkpoint(t, step, n, lib, clock, inc)
	desc := ""
	inWindow(n, window, func() {
		for i := k; i > 0; i-- {
			d, _ := edit()
			desc += d + ","
		}
	})
	step += " accepted (" + desc + ")"
	if arrivalsOnly {
		requireArrivalsMatch(t, step, n, lib, clock, inc.UpdateArrivals())
	}
	inc.Commit()
	if !panics(func() { inc.Rollback() }) {
		t.Fatalf("%s: Rollback after Commit did not panic", step)
	}
	rolledBackBatch(t, step+", then", n, lib, clock, inc, edit, k, arrivalsOnly, window)
}

// fallbackRolledBack rejects two batches of k edits against one
// checkpoint and rolls them back together: the first's update is logged,
// and the second's is forced past FullFraction, so it falls back to a
// full analysis while the log holds the first batch's entries.
func fallbackRolledBack(t testing.TB, step string, n *network.Network, lib *library.Library, clock float64, inc *sta.Incremental, edit func() (string, func()), k int, arrivalsOnly, window bool) {
	t.Helper()
	want := checkpoint(t, step, n, lib, clock, inc)
	step, undos := applyEdits(step, n, edit, k, window)
	updateMatches(t, step, n, lib, clock, inc, arrivalsOnly)
	frac := inc.FullFraction
	inc.FullFraction = 0
	step, more := applyEdits(step+", then", n, edit, k, window)
	updateMatches(t, step, n, lib, clock, inc, arrivalsOnly)
	inc.FullFraction = frac
	undoEdits(n, window, append(undos, more...))
	requireReads(t, step, n, inc, inc.Rollback(), want)
	requireMatch(t, step, n, lib, clock, inc.Update())
}

// checkpoint brings inc current, checks it against a fresh analysis,
// takes a Checkpoint, and returns the reads a Rollback must restore.
func checkpoint(t testing.TB, step string, n *network.Network, lib *library.Library, clock float64, inc *sta.Incremental) []uint64 {
	t.Helper()
	requireMatch(t, step+" before", n, lib, clock, inc.Update())
	want := timerReads(n, inc, inc.Timing())
	inc.Checkpoint()
	return want
}

// rejectBatch applies k edits to a checkpointed inc, brings it current
// with an Update or, when arrivalsOnly, an UpdateArrivals, which must
// match a fresh analysis, runs the undos in reverse order and rolls
// back; every read must then equal want.
func rejectBatch(t testing.TB, step string, n *network.Network, lib *library.Library, clock float64, inc *sta.Incremental, edit func() (string, func()), k int, arrivalsOnly, window bool, want []uint64) {
	t.Helper()
	step, undos := applyEdits(step, n, edit, k, window)
	updateMatches(t, step, n, lib, clock, inc, arrivalsOnly)
	undoEdits(n, window, undos)
	requireReads(t, step, n, inc, inc.Rollback(), want)
}

// applyEdits makes k edits, inside one batch window when window is set,
// and returns the step named with them and their undos.
func applyEdits(step string, n *network.Network, edit func() (string, func()), k int, window bool) (string, []func()) {
	desc := ""
	var undos []func()
	inWindow(n, window, func() {
		for ; k > 0; k-- {
			d, undo := edit()
			desc += d + ","
			undos = append(undos, undo)
		}
	})
	return step + " rolled back (" + desc + ")", undos
}

// updateMatches brings inc current with an Update or, when arrivalsOnly,
// an UpdateArrivals, which must match a fresh analysis.
func updateMatches(t testing.TB, step string, n *network.Network, lib *library.Library, clock float64, inc *sta.Incremental, arrivalsOnly bool) {
	t.Helper()
	if arrivalsOnly {
		requireArrivalsMatch(t, step+" applied", n, lib, clock, inc.UpdateArrivals())
	} else {
		requireMatch(t, step+" applied", n, lib, clock, inc.Update())
	}
}

// undoEdits runs undos in reverse order, inside one batch window when
// window is set.
func undoEdits(n *network.Network, window bool, undos []func()) {
	inWindow(n, window, func() {
		for i := len(undos) - 1; i >= 0; i-- {
			undos[i]()
		}
	})
}

// rejected holds the rejected-batch steps of FuzzIncrementalTiming, by
// the top two bits of the step's edit-count byte.
var rejected = [4]func(testing.TB, string, *network.Network, *library.Library, float64, *sta.Incremental, func() (string, func()), int, bool, bool){
	rolledBackBatch, rolledBackTwice, acceptedThenRolledBack, fallbackRolledBack,
}

// inWindow runs f inside one batch window of n when window is set, and
// as one event round per mutator call otherwise.
func inWindow(n *network.Network, window bool, f func()) {
	if window {
		n.BeginBatch()
		defer n.EndBatch()
	}
	f()
}

// removalSeed is a FuzzIncrementalTiming input whose arrivals-only step
// leaves backward seeds pending when the next step's rewire-and-sweep
// deletes some of them.
const removalSeed = "10000000000000100000000001000000010000000000000000000000101000000000000000001200000000000120009000900000100"
