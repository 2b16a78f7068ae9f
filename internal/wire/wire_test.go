package wire

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBuildCentroid(t *testing.T) {
	src := Point{0, 0}
	sinks := []Point{{100, 0}, {0, 100}, {100, 100}}
	s := Build(src, sinks)
	if !approx(s.Center.X, 50, 1e-9) || !approx(s.Center.Y, 50, 1e-9) {
		t.Fatalf("center = %+v want (50,50)", s.Center)
	}
	// Source→center manhattan = 100 µm = 0.01 cm.
	if !approx(s.SourceLen, 0.01, 1e-12) {
		t.Fatalf("source len = %v", s.SourceLen)
	}
	for i := range sinks {
		if !approx(s.SinkLen[i], 0.01, 1e-12) {
			t.Fatalf("sink %d len = %v", i, s.SinkLen[i])
		}
	}
}

func TestDegenerateNet(t *testing.T) {
	s := Build(Point{5, 5}, nil)
	if s.WireCap() != 0 || s.TotalLoad(nil) != 0 {
		t.Fatal("empty net should have zero parasitics")
	}
}

func TestCoincidentTerminals(t *testing.T) {
	p := Point{10, 10}
	s := Build(p, []Point{p, p})
	if s.WireCap() != 0 {
		t.Fatal("coincident terminals should have zero wire cap")
	}
	if d := s.ElmoreToSink(0, []float64{0.01, 0.01}); d != 0 {
		t.Fatalf("zero-length Elmore = %v", d)
	}
	// Pin caps still load the driver.
	if !approx(s.TotalLoad([]float64{0.01, 0.02}), 0.03, 1e-12) {
		t.Fatal("pin caps missing from load")
	}
}

func TestWireCapAndLoad(t *testing.T) {
	// Two terminals 200 µm apart horizontally: center at 100, each
	// segment 100 µm = 0.01 cm; total 0.02 cm × 2 pF/cm = 0.04 pF.
	s := Build(Point{0, 0}, []Point{{200, 0}})
	if !approx(s.WireCap(), 0.04, 1e-12) {
		t.Fatalf("wire cap = %v", s.WireCap())
	}
	if !approx(s.TotalLoad([]float64{0.005}), 0.045, 1e-12) {
		t.Fatalf("load = %v", s.TotalLoad([]float64{0.005}))
	}
}

func TestElmoreHandComputed(t *testing.T) {
	// Source (0,0), one sink (200,0): L0 = L1 = 0.01 cm.
	// r0 = 0.024 kΩ, c0 = 0.02 pF, sink pin 0.005 pF.
	// Elmore = r0*(c0/2 + c1 + cpin) + r1*(c1/2 + cpin)
	//        = 0.024*(0.01+0.02+0.005) + 0.024*(0.01+0.005)
	s := Build(Point{0, 0}, []Point{{200, 0}})
	want := 0.024*(0.01+0.02+0.005) + 0.024*(0.01+0.005)
	if got := s.ElmoreToSink(0, []float64{0.005}); !approx(got, want, 1e-12) {
		t.Fatalf("Elmore = %v want %v", got, want)
	}
}

func TestSinksDifferInDelay(t *testing.T) {
	// Paper: "each sink may have different delay from the source".
	s := Build(Point{0, 0}, []Point{{50, 0}, {500, 0}})
	caps := []float64{0.005, 0.005}
	near := s.ElmoreToSink(0, caps)
	far := s.ElmoreToSink(1, caps)
	if far <= near {
		t.Fatalf("far sink (%v) should be slower than near sink (%v)", far, near)
	}
}

func TestHPWL(t *testing.T) {
	pts := []Point{{0, 0}, {30, 10}, {10, 40}}
	if got := HPWL(pts); !approx(got, 70, 1e-12) {
		t.Fatalf("HPWL = %v want 70", got)
	}
	if HPWL(nil) != 0 {
		t.Fatal("HPWL of empty set")
	}
}

// Property: Elmore delays and loads are nonnegative and monotone in sink
// pin capacitance.
func TestElmoreMonotoneProperty(t *testing.T) {
	f := func(x1, y1, x2, y2 float64) bool {
		clamp := func(v float64) float64 { return math.Mod(math.Abs(v), 1000) }
		s := Build(Point{0, 0}, []Point{{clamp(x1), clamp(y1)}, {clamp(x2), clamp(y2)}})
		small := []float64{0.001, 0.001}
		big := []float64{0.01, 0.01}
		d0 := s.ElmoreToSink(0, small)
		d1 := s.ElmoreToSink(0, big)
		return d0 >= 0 && d1 >= d0 && s.TotalLoad(big) > s.TotalLoad(small)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// ElmoreAll reproduces ElmoreToSink bit for bit on random stars,
// including zero-length segments (a sink on the star center, or the
// source on it) and coincident terminals, and appends after out's
// existing contents.
func TestElmoreAllMatchesElmoreToSink(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	coord := func() float64 {
		// A coarse grid makes coincident points and centered terminals
		// common; the rest are arbitrary.
		if rng.Intn(2) == 0 {
			return float64(rng.Intn(3) * 50)
		}
		return rng.Float64() * 1000
	}
	out := []float64{-1}
	for trial := 0; trial < 2000; trial++ {
		src := Point{coord(), coord()}
		sinks := make([]Point, rng.Intn(12))
		caps := make([]float64, len(sinks))
		for i := range sinks {
			switch rng.Intn(4) {
			case 0:
				sinks[i] = src
			case 1:
				if i > 0 {
					sinks[i] = sinks[i-1]
					break
				}
				fallthrough
			default:
				sinks[i] = Point{coord(), coord()}
			}
			if rng.Intn(5) > 0 {
				caps[i] = rng.Float64() * 0.02
			}
		}
		if trial%7 == 0 && len(sinks) > 0 {
			// Source and one sink on the centroid: zero-length segments.
			c := Point{100, 100}
			src, sinks[0] = c, c
			for i := 1; i < len(sinks); i++ {
				sinks[i] = Point{200 - sinks[i-1].X, 200 - sinks[i-1].Y}
			}
		}
		s := Build(src, sinks)
		out = s.ElmoreAll(caps, out[:1])
		if len(out) != 1+len(sinks) || out[0] != -1 {
			t.Fatalf("trial %d: ElmoreAll returned %v for %d sinks", trial, out, len(sinks))
		}
		for i := range sinks {
			if got, want := out[1+i], s.ElmoreToSink(i, caps); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d sink %d: ElmoreAll %v (%#x), ElmoreToSink %v (%#x)",
					trial, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
