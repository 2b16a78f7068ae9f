package rapids_test

// Cancellation, anytime semantics, goroutine hygiene, and facade/direct
// determinism — the contract DESIGN.md §4 promises embedders.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/library"
	"repro/internal/netcmp"
	"repro/internal/network"
	"repro/internal/opt"
	"repro/internal/place"
	"repro/internal/sizing"
	"repro/rapids"
)

// placedBench builds one placed facade circuit.
func placedBench(t *testing.T, name string, moves int) *rapids.Circuit {
	t.Helper()
	c, err := rapids.Generate(name)
	if err != nil {
		t.Fatal(err)
	}
	c.Place(rapids.PlaceMoves(moves))
	return c
}

// TestOptimizeCancelMidRun cancels from inside the progress stream — a
// phase boundary by construction — and asserts the anytime contract:
// the returned network is simulation-equivalent to the input, never
// slower, and the Result is self-consistent and marked Interrupted.
func TestOptimizeCancelMidRun(t *testing.T) {
	c := placedBench(t, "alu2", 5)
	orig := c.Clone()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	phases := 0
	res, err := c.Optimize(ctx,
		rapids.WithIters(8), rapids.WithWorkers(1),
		rapids.WithProgress(func(ev rapids.Event) {
			if ev.Kind == rapids.EventPhase {
				phases++
				if phases == 1 {
					cancel()
				}
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil || !res.Interrupted {
		t.Fatalf("interrupted run must return a marked Result: %+v", res)
	}
	if res.Verification != rapids.VerifySkipped {
		t.Fatalf("interrupted runs skip verification: %v", res.Verification)
	}
	// Anytime semantics: best-so-far, valid, function-preserving.
	if err := c.EquivalentTo(orig, 32, 99); err != nil {
		t.Fatalf("cancelled run broke equivalence: %v", err)
	}
	if res.FinalDelayNS <= 0 || res.FinalDelayNS > res.InitialDelayNS+1e-9 {
		t.Fatalf("best-so-far delay inconsistent: %.6f -> %.6f", res.InitialDelayNS, res.FinalDelayNS)
	}
	if got := c.DelayNS(); math.Abs(got-res.FinalDelayNS) > 1e-9 {
		t.Fatalf("Result.FinalDelayNS %.9f does not describe the returned network (%.9f)", res.FinalDelayNS, got)
	}
	for name, xy := range c.Locations() {
		if was, ok := orig.Locations()[name]; ok && was != xy {
			t.Fatalf("cancelled run moved cell %s", name)
		}
	}
}

// TestOptimizeCancelBeforeStart: a context cancelled before the call
// still returns a valid, untouched network and a zero-work Result.
func TestOptimizeCancelBeforeStart(t *testing.T) {
	c := placedBench(t, "c432", 5)
	orig := c.Clone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := c.Optimize(ctx, rapids.WithWorkers(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if !res.Interrupted || res.Iterations != 0 || res.Swaps != 0 || res.Resizes != 0 {
		t.Fatalf("pre-cancelled run must commit nothing: %+v", res)
	}
	if err := netcmp.Structure(c.Network(), orig.Network()); err != nil {
		t.Fatalf("pre-cancelled run restructured the network: %v", err)
	}
}

// TestOptimizeDeadline: deadline expiry behaves like cancellation.
func TestOptimizeDeadline(t *testing.T) {
	c := placedBench(t, "alu2", 5)
	orig := c.Clone()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond)
	res, err := c.Optimize(ctx, rapids.WithIters(8), rapids.WithWorkers(1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if !res.Interrupted {
		t.Fatalf("deadline run must be marked interrupted")
	}
	if err := c.EquivalentTo(orig, 16, 7); err != nil {
		t.Fatalf("deadline run broke equivalence: %v", err)
	}
}

// TestOptimizeWithDeadlineOption: WithDeadline rides the same
// cancellation path as a caller-supplied deadline, including with a
// nil context.
func TestOptimizeWithDeadlineOption(t *testing.T) {
	c := placedBench(t, "alu2", 5)
	orig := c.Clone()
	res, err := c.Optimize(nil, rapids.WithIters(8), rapids.WithWorkers(1),
		rapids.WithDeadline(time.Millisecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if !res.Interrupted || res.Verification != rapids.VerifySkipped {
		t.Fatalf("deadline run must be interrupted and unverified: %+v", res)
	}
	if res.FinalDelayNS > res.InitialDelayNS+1e-9 {
		t.Fatalf("best-so-far slower than input: %+v", res)
	}
	if err := c.EquivalentTo(orig, 16, 7); err != nil {
		t.Fatalf("deadline run broke equivalence: %v", err)
	}
}

// TestCancelledRunsLeakNoGoroutines runs cancelled single-run and
// WithRegions optimizations and requires the goroutine count to settle
// back to the baseline: the scoring pool must not outlive Optimize.
func TestCancelledRunsLeakNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, regions := range []int{0, 3} {
		c := placedBench(t, "alu2", 5)
		ctx, cancel := context.WithCancel(context.Background())
		fired := false
		_, err := c.Optimize(ctx,
			rapids.WithIters(8), rapids.WithRegions(regions),
			rapids.WithProgress(func(ev rapids.Event) {
				if ev.Kind == rapids.EventPhase && !fired {
					fired = true
					cancel()
				}
			}))
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("regions=%d: %v", regions, err)
		}
	}
	// Allow worker teardown to settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancelled runs",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// directFlow reproduces the facade's exact pipeline with internal
// packages: the determinism oracle.
func directFlow(t *testing.T, name string, iters, workers, regions int) (*network.Network, opt.Result) {
	t.Helper()
	lib := library.Default035()
	n, err := gen.Generate(name)
	if err != nil {
		t.Fatal(err)
	}
	place.Place(n, lib, place.Options{Seed: 1, MovesPerCell: 5})
	sizing.SeedForLoad(n, lib, 0)
	o := opt.Options{MaxIters: iters, Workers: workers}
	if regions > 1 {
		return n, opt.OptimizeRounds(context.Background(), n, lib, opt.GsgGS, o)
	}
	return n, opt.Optimize(context.Background(), n, lib, opt.GsgGS, o)
}

// TestFacadeMatchesDirectInternalRun: for identical options, a facade
// run is byte-identical to wiring the internal packages directly — same
// final structure, same sizes, same reported numbers.
func TestFacadeMatchesDirectInternalRun(t *testing.T) {
	for _, tc := range []struct {
		label   string
		regions int
	}{
		{"whole-network", 0},
		{"regioned", 3},
	} {
		t.Run(tc.label, func(t *testing.T) {
			dn, dres := directFlow(t, "c432", 3, 1, tc.regions)

			c := placedBench(t, "c432", 5)
			res, err := c.Optimize(context.Background(),
				rapids.WithIters(3), rapids.WithWorkers(1),
				rapids.WithRegions(tc.regions))
			if err != nil {
				t.Fatal(err)
			}

			if res.FinalDelayNS != dres.FinalDelay || res.InitialDelayNS != dres.InitialDelay {
				t.Fatalf("delays differ: facade %.12f->%.12f, direct %.12f->%.12f",
					res.InitialDelayNS, res.FinalDelayNS, dres.InitialDelay, dres.FinalDelay)
			}
			if res.FinalAreaUM2 != dres.FinalArea || res.Swaps != dres.Swaps ||
				res.Resizes != dres.Resizes || res.Iterations != dres.Iterations {
				t.Fatalf("work differs: facade %+v, direct %+v", res, dres)
			}
			if err := netcmp.Structure(c.Network(), dn); err != nil {
				t.Fatalf("structures diverged: %v", err)
			}
			// netcmp ignores implementation choice; sizes must match too.
			sizes := map[string]int{}
			dn.Gates(func(g *network.Gate) { sizes[g.Name()] = g.SizeIdx })
			c.Network().Gates(func(g *network.Gate) {
				if sizes[g.Name()] != g.SizeIdx {
					t.Fatalf("gate %s size %d vs %d", g.Name(), g.SizeIdx, sizes[g.Name()])
				}
			})
		})
	}
}

// TestRegionsValueBeyondOneIsUnused pins WithRegions' contract: any n > 1
// runs the same rounds, so WithRegions(2) and WithRegions(8) give a
// byte-identical Result (Elapsed aside) and the same final network.
func TestRegionsValueBeyondOneIsUnused(t *testing.T) {
	run := func(regions int) (string, string) {
		c := placedBench(t, "c432", 5)
		res, err := c.Optimize(context.Background(),
			rapids.WithWindow(0.005), rapids.WithRegions(regions))
		if err != nil {
			t.Fatal(err)
		}
		res.Elapsed = 0
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var net strings.Builder
		c.Network().Gates(func(g *network.Gate) {
			fmt.Fprintf(&net, "%s:%v:s%d:po%v:%v,%v:[", g.Name(), g.Type, g.SizeIdx, g.PO, g.X, g.Y)
			for _, f := range g.Fanins() {
				fmt.Fprintf(&net, "%s,", f.Name())
			}
			net.WriteString("]\n")
		})
		return string(js), net.String()
	}
	r2, n2 := run(2)
	r8, n8 := run(8)
	if r2 != r8 {
		t.Fatalf("results differ:\nregions=2 %s\nregions=8 %s", r2, r8)
	}
	if n2 != n8 {
		t.Fatal("final networks differ between WithRegions(2) and WithRegions(8)")
	}
}
