package server

import (
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/rapids"
)

// Edit replies and session SSE delta frames are the service's largest
// bodies: an s38417 critical-path edit replies with ~0.7 MB of JSON.
// encoding/json builds a whole body in a pooled encodeState before the
// first byte is written, and its pool then keeps buffers that size alive.
// deltaEncoder writes the same bytes as encoding/json (HTML-safe strings,
// ES6 float formatting, the struct tags' field order and omitempty) in
// chunks of about deltaChunk bytes from one small pooled buffer. It
// encodes nothing but EditResponse and *rapids.Delta; every other body
// keeps writeJSON. encoding/json rejects NaN and ±Inf, so callers check
// finiteDeltas first and fall back to writeJSON before writing a byte.

// errNonFinite reports a delta encoding/json cannot encode.
var errNonFinite = errors.New("server: delta holds a non-finite float")

// deltaChunk is how many encoded bytes deltaEncoder gathers per Write.
const deltaChunk = 32 << 10

// deltaBufs pools the encoders' buffers. One list element (a slack change
// or a path stage) may overshoot a chunk, so a buffer has some headroom;
// one grown past twice a chunk by a huge gate name is not pooled again.
var deltaBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, deltaChunk+deltaChunk/8)
	return &b
}}

// deltaEncoder streams JSON to w. The first write error sticks and turns
// every later write into a no-op.
type deltaEncoder struct {
	w    io.Writer
	pool *[]byte // buf's pool slot
	buf  []byte
	err  error
}

func newDeltaEncoder(w io.Writer) deltaEncoder {
	p := deltaBufs.Get().(*[]byte)
	return deltaEncoder{w: w, pool: p, buf: (*p)[:0]}
}

// close writes what is buffered, returns the buffer to the pool, and
// reports the first write error.
func (e *deltaEncoder) close() error {
	e.flush()
	if cap(e.buf) <= 2*deltaChunk {
		*e.pool = e.buf
		deltaBufs.Put(e.pool)
	}
	e.pool, e.buf = nil, nil
	return e.err
}

func (e *deltaEncoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// spill writes the buffer once it holds a chunk.
func (e *deltaEncoder) spill() {
	if len(e.buf) >= deltaChunk {
		e.flush()
	}
}

// editResponse encodes r as json.NewEncoder(w).Encode(r) would, trailing
// newline included.
func (e *deltaEncoder) editResponse(r EditResponse) {
	e.buf = append(e.buf, `{"id":`...)
	e.buf = appendJSONString(e.buf, r.ID)
	e.buf = append(e.buf, `,"deltas":`...)
	if r.Deltas == nil {
		e.buf = append(e.buf, "null"...)
	} else {
		e.buf = append(e.buf, '[')
		for i, d := range r.Deltas {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.delta(d)
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, "}\n"...)
}

// delta encodes d as json.Marshal(d) would.
func (e *deltaEncoder) delta(d *rapids.Delta) {
	if d == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	b := append(e.buf, `{"seq":`...)
	b = strconv.AppendInt(b, int64(d.Seq), 10)
	b = append(b, `,"edits":`...)
	b = strconv.AppendInt(b, int64(d.Edits), 10)
	b = append(b, `,"delay_ns":`...)
	b = appendJSONFloat(b, d.DelayNS)
	b = append(b, `,"prev_delay_ns":`...)
	b = appendJSONFloat(b, d.PrevDelayNS)
	b = append(b, `,"lateness_ns":`...)
	b = appendJSONFloat(b, d.LatenessNS)
	b = append(b, `,"touched_gates":`...)
	b = strconv.AppendInt(b, int64(d.TouchedGates), 10)
	if d.FullReanalysis {
		b = append(b, `,"full_reanalysis":true`...)
	}
	if d.Swaps != 0 {
		b = append(b, `,"swaps":`...)
		b = strconv.AppendInt(b, int64(d.Swaps), 10)
	}
	if d.Resizes != 0 {
		b = append(b, `,"resizes":`...)
		b = strconv.AppendInt(b, int64(d.Resizes), 10)
	}
	if d.Interrupted {
		b = append(b, `,"interrupted":true`...)
	}
	if len(d.ChangedSlacks) > 0 {
		b = append(b, `,"changed_slacks":[`...)
		for i, c := range d.ChangedSlacks {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"gate":`...)
			b = appendJSONString(b, c.Gate)
			b = append(b, `,"old_ns":`...)
			b = appendJSONFloat(b, c.OldNS)
			b = append(b, `,"new_ns":`...)
			b = appendJSONFloat(b, c.NewNS)
			e.buf = append(b, '}')
			e.spill()
			b = e.buf
		}
		b = append(b, ']')
	}
	b = append(b, `,"critical_path":`...)
	if d.CriticalPath == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range d.CriticalPath {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"Gate":`...)
			b = appendJSONString(b, p.Gate)
			b = append(b, `,"Cell":`...)
			b = appendJSONString(b, p.Cell)
			b = append(b, `,"Size":`...)
			b = strconv.AppendInt(b, int64(p.Size), 10)
			b = append(b, `,"ArrivalNS":`...)
			b = appendJSONFloat(b, p.ArrivalNS)
			b = append(b, `,"GateDelayNS":`...)
			b = appendJSONFloat(b, p.GateDelayNS)
			b = append(b, `,"WireDelayNS":`...)
			b = appendJSONFloat(b, p.WireDelayNS)
			b = append(b, `,"LoadPF":`...)
			b = appendJSONFloat(b, p.LoadPF)
			e.buf = append(b, '}')
			e.spill()
			b = e.buf
		}
		b = append(b, ']')
	}
	b = append(b, `,"elapsed_ns":`...)
	b = strconv.AppendInt(b, int64(d.Elapsed), 10)
	e.buf = append(b, '}')
}

// finiteDeltas reports whether every float in ds is finite, which is
// exactly when encoding/json can encode them.
func finiteDeltas(ds ...*rapids.Delta) bool {
	for _, d := range ds {
		if d == nil {
			continue
		}
		if !finite(d.DelayNS) || !finite(d.PrevDelayNS) || !finite(d.LatenessNS) {
			return false
		}
		for _, c := range d.ChangedSlacks {
			if !finite(c.OldNS) || !finite(c.NewNS) {
				return false
			}
		}
		for _, p := range d.CriticalPath {
			if !finite(p.ArrivalNS) || !finite(p.GateDelayNS) || !finite(p.WireDelayNS) || !finite(p.LoadPF) {
				return false
			}
		}
	}
	return true
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// writeEditResponse is writeJSON(w, http.StatusOK, r), streamed.
func writeEditResponse(w http.ResponseWriter, r EditResponse) {
	if !finiteDeltas(r.Deltas...) {
		writeJSON(w, http.StatusOK, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	e := newDeltaEncoder(w)
	e.editResponse(r)
	e.close() // a failed write means the client is gone; nothing is left to tell it
}

// writeDeltaFrame writes d's SSE frame, the bytes serveStream's
// json.Marshal path would write, or nothing when d holds a non-finite
// float.
func writeDeltaFrame(w io.Writer, id int, d *rapids.Delta) error {
	if !finiteDeltas(d) {
		return errNonFinite
	}
	e := newDeltaEncoder(w)
	e.buf = append(e.buf, "id: "...)
	e.buf = strconv.AppendInt(e.buf, int64(id), 10)
	e.buf = append(e.buf, "\nevent: delta\ndata: "...)
	e.delta(d)
	e.buf = append(e.buf, "\n\n"...)
	return e.close()
}

// appendJSONFloat appends f as encoding/json formats a finite float64:
// like strconv's shortest 'f', but 'e' below 1e-6 and from 1e21, with
// the exponent unpadded (e-9, not e-09).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json does with HTML
// escaping on: control bytes, '"', '\\', '<', '>' and '&' escaped,
// invalid UTF-8 replaced by \ufffd, U+2028 and U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
