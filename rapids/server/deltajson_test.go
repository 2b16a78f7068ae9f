package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/rapids"
)

// streamDelta returns the delta encoder's bytes for d.
func streamDelta(d *rapids.Delta) []byte {
	var buf bytes.Buffer
	e := newDeltaEncoder(&buf)
	e.delta(d)
	e.close()
	return buf.Bytes()
}

// streamEditResponse returns the delta encoder's bytes for r.
func streamEditResponse(r EditResponse) []byte {
	var buf bytes.Buffer
	e := newDeltaEncoder(&buf)
	e.editResponse(r)
	e.close()
	return buf.Bytes()
}

// checkDeltaJSON compares every streamed form of d with encoding/json:
// the Delta alone, its SSE frame, and edit replies holding it.
func checkDeltaJSON(t *testing.T, id string, d *rapids.Delta) {
	t.Helper()
	want, err := json.Marshal(d)
	if ok := finiteDeltas(d); ok != (err == nil) {
		t.Fatalf("finiteDeltas = %v, json.Marshal error = %v", ok, err)
	}
	if err == nil {
		if got := streamDelta(d); !bytes.Equal(got, want) {
			t.Fatalf("streamed Delta differs from json.Marshal\n got %.300q\nwant %.300q", got, want)
		}
	}

	var frame, oldFrame bytes.Buffer
	ferr := writeDeltaFrame(&frame, 7, d)
	oerr := writeFrame(&oldFrame, 7, "delta", d)
	if (ferr == nil) != (oerr == nil) || !bytes.Equal(frame.Bytes(), oldFrame.Bytes()) {
		t.Fatalf("SSE frame (err %v) differs from the json.Marshal frame (err %v)\n got %.300q\nwant %.300q",
			ferr, oerr, frame.Bytes(), oldFrame.Bytes())
	}

	for _, ds := range [][]*rapids.Delta{nil, {}, {d}, {d, nil, d}} {
		r := EditResponse{ID: id, Deltas: ds}
		var enc bytes.Buffer
		err := json.NewEncoder(&enc).Encode(r)
		if ok := finiteDeltas(ds...); ok != (err == nil) {
			t.Fatalf("finiteDeltas = %v, Encode error = %v", ok, err)
		}
		if err == nil {
			if got := streamEditResponse(r); !bytes.Equal(got, enc.Bytes()) {
				t.Fatalf("streamed EditResponse differs from Encode\n got %.300q\nwant %.300q", got, enc.Bytes())
			}
		}
		streamed, encoded := httptest.NewRecorder(), httptest.NewRecorder()
		writeEditResponse(streamed, r)
		writeJSON(encoded, 200, r)
		if streamed.Code != encoded.Code ||
			!reflect.DeepEqual(streamed.Header(), encoded.Header()) ||
			!bytes.Equal(streamed.Body.Bytes(), encoded.Body.Bytes()) {
			t.Fatalf("writeEditResponse (%d %v, %d bytes) differs from writeJSON (%d %v, %d bytes)",
				streamed.Code, streamed.Header(), streamed.Body.Len(),
				encoded.Code, encoded.Header(), encoded.Body.Len())
		}
		// A reply encoding/json refuses is answered 500 with an
		// ErrorBody, never 200 with an empty body.
		if !finiteDeltas(ds...) {
			var body ErrorBody
			if err := json.Unmarshal(streamed.Body.Bytes(), &body); streamed.Code != 500 || err != nil || body.Error == "" {
				t.Fatalf("non-finite reply answered %d %q (decode error %v), want 500 with an ErrorBody",
					streamed.Code, streamed.Body.Bytes(), err)
			}
		} else if streamed.Code != 200 {
			t.Fatalf("finite reply answered %d", streamed.Code)
		}
	}
}

// FuzzDeltaJSON checks that the streamed bytes of a Delta, its SSE frame
// and an EditResponse equal encoding/json's, and that the encoder refuses
// exactly the values encoding/json refuses (non-finite floats). Each list
// repeats its element n times with the floats scaled by the position, so
// long lists cross the encoder's chunk boundary.
func FuzzDeltaJSON(f *testing.F) {
	type seed struct {
		seq, edits, touched, swaps, resizes int
		flags                               uint8
		delay, prev, late                   float64
		id, gate, cell                      string
		oldNS, newNS, arr, gdel, wdel, load float64
		slacks, stages                      uint16
		elapsed                             int64
	}
	for _, s := range []seed{
		{seq: 1, edits: 1, touched: 40, delay: 12.5, prev: 12.75, late: 0.25, id: "s-1",
			gate: "n123", cell: "NAND2", oldNS: 0.5, newNS: 0.625, arr: 3.1, gdel: 0.2, wdel: 0.01,
			load: 0.004, slacks: 3, stages: 4, elapsed: 1500000},
		{seq: 2, flags: 1 | 2, swaps: 3, resizes: 4, delay: math.Copysign(0, -1), prev: 1e-7, late: 1e21,
			id: "s-2", gate: `<a>&"b\c`, cell: "x y z", oldNS: 5e-324, newNS: 2.2250738585072014e-308,
			arr: 1e-6, gdel: 9.999999999999999e20, wdel: -1e-9, load: 123456789, slacks: 1, stages: 1},
		{seq: 3, flags: 4, id: "\xff\xfe", gate: "\x00\x1f\t\n\r\b\f\x7f", cell: "\u00e9\u2028x\u2029\U0001D11E", oldNS: -0.1,
			newNS: 1e300, arr: -1e-300, slacks: 0, stages: 0},
		{seq: 4, flags: 8 | 16, gate: "g", cell: "INV", oldNS: 1.5, newNS: 2.5, slacks: 0, stages: 2},
		{seq: 5, touched: 11000, gate: "n9999", cell: "AOI21", oldNS: 0.123456789, newNS: 0.3,
			arr: 7.25, gdel: 0.1, wdel: 0.02, load: 0.0031, slacks: 1500, stages: 60, elapsed: 7},
		{seq: 6, delay: math.NaN(), gate: "n", slacks: 1, stages: 1},
		{seq: 7, oldNS: math.Inf(1), gate: "n", slacks: 2},
		{seq: 8, load: math.Inf(-1), gate: "n", stages: 3},
		{seq: 9, oldNS: math.MaxFloat64, gate: "n", slacks: 2},
		// Every float where 'g' and encoding/json part ways: below
		// 1e-4 and from 1e6 'g' switches to an exponent, padded to two
		// digits.
		{seq: 10, delay: 1e-7, prev: 1e-7, late: 1e-7, gate: "n", oldNS: 1e-7, newNS: 1e-7,
			arr: 1e-7, gdel: 1e-7, wdel: 1e-7, load: 1e-7, slacks: 2, stages: 2},
		{seq: 11, delay: 1234567, prev: 1234567, late: 1e20, gate: "n", oldNS: 1234567, newNS: 1e20,
			arr: 1234567, gdel: 1e20, wdel: 1234567, load: 1e20, slacks: 2, stages: 2},
	} {
		f.Add(s.seq, s.edits, s.touched, s.swaps, s.resizes, s.flags, s.delay, s.prev, s.late,
			s.id, s.gate, s.cell, s.oldNS, s.newNS, s.arr, s.gdel, s.wdel, s.load, s.slacks, s.stages, s.elapsed)
	}
	f.Fuzz(func(t *testing.T, seq, edits, touched, swaps, resizes int, flags uint8, delay, prev, late float64,
		id, gate, cell string, oldNS, newNS, arr, gdel, wdel, load float64, slacks, stages uint16, elapsed int64) {
		d := &rapids.Delta{
			Seq: seq, Edits: edits, DelayNS: delay, PrevDelayNS: prev, LatenessNS: late,
			TouchedGates: touched, FullReanalysis: flags&1 != 0, Swaps: swaps, Resizes: resizes,
			Interrupted: flags&2 != 0, Elapsed: time.Duration(elapsed),
		}
		if slacks > 0 || flags&4 != 0 {
			d.ChangedSlacks = make([]rapids.SlackChange, slacks%2000)
		}
		for i := range d.ChangedSlacks {
			k := float64(i + 1)
			d.ChangedSlacks[i] = rapids.SlackChange{Gate: gate, OldNS: oldNS * k, NewNS: newNS / k}
		}
		if flags&8 == 0 {
			d.CriticalPath = make([]rapids.PathStage, stages%200)
		}
		for i := range d.CriticalPath {
			k := float64(i + 1)
			d.CriticalPath[i] = rapids.PathStage{Gate: gate, Cell: cell, Size: i,
				ArrivalNS: arr * k, GateDelayNS: gdel / k, WireDelayNS: wdel * k, LoadPF: load / k}
		}
		if flags&16 != 0 {
			d = nil
		}
		checkDeltaJSON(t, id, d)
	})
}

// fillNonZero sets every field reachable from v to a non-zero value: a
// slice gets two elements, a pointer a new value. It fails on a kind it
// does not know, so a new field of a new kind cannot slip past.
func fillNonZero(t *testing.T, v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(1.25e-7)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("<g&1>")
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				fillNonZero(t, v.Field(i), path+"."+f.Name)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fillNonZero(t, v.Index(i), path+"[]")
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem(), path)
	default:
		t.Fatalf("%s: kind %s unknown to the check; teach the delta encoder and fillNonZero about it", path, v.Kind())
	}
}

// TestDeltaJSONWritesEveryField fails when Delta, SlackChange or PathStage
// gains a field the delta encoder does not write: every field is set, so
// encoding/json writes all of them, omitempty ones included.
func TestDeltaJSONWritesEveryField(t *testing.T) {
	var r EditResponse
	fillNonZero(t, reflect.ValueOf(&r).Elem(), "EditResponse")
	var enc bytes.Buffer
	if err := json.NewEncoder(&enc).Encode(r); err != nil {
		t.Fatal(err)
	}
	if got := streamEditResponse(r); !bytes.Equal(got, enc.Bytes()) {
		t.Fatalf("a field is missing from the delta encoder\n got %s\nwant %s", got, enc.Bytes())
	}
}

// TestDeltaFrameStopsOnWriteError checks that a failed write ends the
// frame: the error is reported and nothing more is written.
func TestDeltaFrameStopsOnWriteError(t *testing.T) {
	d := &rapids.Delta{ChangedSlacks: make([]rapids.SlackChange, 3*deltaChunk/40)}
	for i := range d.ChangedSlacks {
		d.ChangedSlacks[i] = rapids.SlackChange{Gate: "n12345", OldNS: 0.5, NewNS: 0.25}
	}
	w := &failingWriter{}
	if err := writeDeltaFrame(w, 1, d); err == nil {
		t.Fatal("writeDeltaFrame reported no error")
	}
	if w.writes != 1 {
		t.Fatalf("%d writes after the first failed, want none", w.writes-1)
	}
}

type failingWriter struct{ writes int }

func (w *failingWriter) Write([]byte) (int, error) {
	w.writes++
	return 0, io.ErrClosedPipe
}

// editReplyBench holds a recorded s38417 edit reply: a resize mid-way
// along the critical path of the server's default placement, which
// re-times most of the circuit (about 8,000 slack changes, 0.7 MB).
var editReplyBench struct {
	once sync.Once
	resp EditResponse
	err  error
}

// BenchmarkEditReply streams the recorded s38417 critical-path edit
// reply to io.Discard, as the edits endpoint writes it.
func BenchmarkEditReply(b *testing.B) {
	editReplyBench.once.Do(func() {
		c, err := placedCircuit(JobRequest{Generate: "s38417"})
		if err != nil {
			editReplyBench.err = err
			return
		}
		s, err := c.BeginSession(context.Background())
		if err != nil {
			editReplyBench.err = err
			return
		}
		defer s.Close()
		mid := s.View().CriticalPath[len(s.View().CriticalPath)/2]
		size := 1
		if mid.Size == 1 {
			size = 2
		}
		d, err := s.Apply(rapids.Edit{Kind: rapids.EditResize, Gate: mid.Gate, Size: size})
		editReplyBench.resp, editReplyBench.err = EditResponse{ID: "s-1", Deltas: []*rapids.Delta{d}}, err
	})
	if editReplyBench.err != nil {
		b.Fatal(editReplyBench.err)
	}
	r := editReplyBench.resp
	b.SetBytes(int64(len(streamEditResponse(r))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := newDeltaEncoder(io.Discard)
		e.editResponse(r)
		if err := e.close(); err != nil {
			b.Fatal(err)
		}
	}
}
