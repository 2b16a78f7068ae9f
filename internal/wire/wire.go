// Package wire implements the analytical interconnect model the paper
// adopts after placement (§6, following Riess & Ettl): since routing is
// not available, each net is modeled as a star. The center of the star is
// the center of gravity of all net terminals; the net is divided into
// segments from the source to the star center and from the center to each
// sink. Each segment is a lumped RC and sink delays use the Elmore model,
// so different sinks of one net see different delays.
//
// Unit parasitics are the paper's: 2 pF/cm capacitance and 2.4 kΩ/cm
// resistance. Coordinates are in µm; internal lengths convert to cm.
package wire

// Paper §6 unit parasitics.
const (
	// CapPerCm is the wire capacitance per unit length in pF/cm.
	CapPerCm = 2.0
	// ResPerCm is the wire resistance per unit length in kΩ/cm.
	ResPerCm = 2.4
)

const umPerCm = 1e4

// Point is a placement location in µm.
type Point struct{ X, Y float64 }

func manhattan(a, b Point) float64 {
	dx := a.X - b.X
	if dx < 0 {
		dx = -dx
	}
	dy := a.Y - b.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Star is the star model of one placed net.
type Star struct {
	// Center is the center of gravity of all terminals (source + sinks).
	Center Point
	// SourceLen is the source→center segment length in cm.
	SourceLen float64
	// SinkLen[i] is the center→sink i segment length in cm.
	SinkLen []float64
}

// Build constructs the star for a net with the given source and sink
// locations. A net with no sinks yields a degenerate star at the source.
func Build(source Point, sinks []Point) Star {
	st := Star{}
	BuildInto(&st, source, sinks)
	return st
}

// BuildInto is Build writing into an existing Star, reusing its SinkLen
// storage — the allocation-free form the optimizers' scoring arenas use.
func BuildInto(st *Star, source Point, sinks []Point) {
	if len(sinks) == 0 {
		*st = Star{Center: source, SinkLen: st.SinkLen[:0]}
		return
	}
	var cx, cy float64
	for _, s := range sinks {
		cx += s.X
		cy += s.Y
	}
	cx += source.X
	cy += source.Y
	k := float64(len(sinks) + 1)
	center := Point{cx / k, cy / k}
	st.Center = center
	st.SourceLen = manhattan(source, center) / umPerCm
	if cap(st.SinkLen) < len(sinks) {
		st.SinkLen = make([]float64, len(sinks))
	} else {
		st.SinkLen = st.SinkLen[:len(sinks)]
	}
	for i, s := range sinks {
		st.SinkLen[i] = manhattan(center, s) / umPerCm
	}
}

// WireCap returns the total wire capacitance of the net in pF.
func (s *Star) WireCap() float64 {
	c := s.SourceLen * CapPerCm
	for _, l := range s.SinkLen {
		c += l * CapPerCm
	}
	return c
}

// TotalLoad returns the capacitance the driver sees: all wire capacitance
// plus the given sink pin capacitances (pF).
func (s *Star) TotalLoad(sinkPinCaps []float64) float64 {
	load := s.WireCap()
	for _, c := range sinkPinCaps {
		load += c
	}
	return load
}

// ElmoreToSink returns the wire delay (ns) from the source out-pin to sink
// i under the Elmore model: the source segment resistance charges half its
// own capacitance plus everything past the star center; the sink segment
// resistance charges half its own capacitance plus the sink pin.
//
// The driver's output resistance contribution (R_drv × TotalLoad) is a
// property of the driving cell and is added by the timing engine, not
// here.
func (s *Star) ElmoreToSink(i int, sinkPinCaps []float64) float64 {
	r0 := s.SourceLen * ResPerCm
	c0 := s.SourceLen * CapPerCm
	// Everything downstream of the source segment.
	downstream := 0.0
	for j, l := range s.SinkLen {
		downstream += l * CapPerCm
		downstream += sinkPinCaps[j]
	}
	ri := s.SinkLen[i] * ResPerCm
	ci := s.SinkLen[i] * CapPerCm
	return r0*(c0/2+downstream) + ri*(ci/2+sinkPinCaps[i])
}

// ElmoreAll appends ElmoreToSink(i, sinkPinCaps) for every sink i, in
// sink order, to out and returns the extended slice. It sums the
// downstream capacitance once, in ElmoreToSink's order, so a net's
// delays cost linear rather than quadratic time in its fanout and
// every delay is bit-identical to ElmoreToSink's.
func (s *Star) ElmoreAll(sinkPinCaps, out []float64) []float64 {
	r0 := s.SourceLen * ResPerCm
	c0 := s.SourceLen * CapPerCm
	downstream := 0.0
	for j, l := range s.SinkLen {
		downstream += l * CapPerCm
		downstream += sinkPinCaps[j]
	}
	src := r0 * (c0/2 + downstream)
	for i, l := range s.SinkLen {
		ri := l * ResPerCm
		ci := l * CapPerCm
		out = append(out, src+ri*(ci/2+sinkPinCaps[i]))
	}
	return out
}

// HPWL returns the half-perimeter wirelength of a terminal set in µm —
// the placement cost metric.
func HPWL(points []Point) float64 {
	if len(points) == 0 {
		return 0
	}
	minX, maxX := points[0].X, points[0].X
	minY, maxY := points[0].Y, points[0].Y
	for _, p := range points[1:] {
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	return (maxX - minX) + (maxY - minY)
}
