// Package perf holds the perf-regression gate that cmd/perfgate runs and
// the profiling switches of the CLIs (StartProfiles).
//
// The gate keeps golden bands for the repo's micro-benchmarks, compared
// in CI against a fresh `go test -bench` run. Two kinds of band, with deliberately different tightness:
//
//   - allocs/op is deterministic (allocation sites do not depend on
//     host speed), so its band is tight — a regression of a few percent
//     means somebody added allocations to a hot path.
//   - ns/op on a shared runner is noisy, so its band is generous (a
//     few multiples of the calm-host value); it exists to catch
//     order-of-magnitude regressions (an accidental O(n) scan in an
//     O(1) path), not percent-level drift. The end-to-end benchmark
//     (cmd/bench), not this gate, tracks percent-level trends.
//
// A benchmark listed in the baseline but absent from the run is a
// violation too: renaming a benchmark must not silently disarm its gate.
package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// BenchResult is one benchmark's measurement, min across repeated runs
// (-count=N): the min is the least contaminated by runner noise.
type BenchResult struct {
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
	HasMem      bool
	Runs        int
}

// benchLineRe matches `go test -bench` result lines:
//
//	BenchmarkMoveGen-4   	      12	  76533664 ns/op	 123456 B/op	   789 allocs/op
var benchLineRe = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)

var memRe = regexp.MustCompile(`([0-9.]+) B/op\s+([0-9.]+) allocs/op`)

// ParseBenchOutput reads `go test -bench -benchmem` output and returns
// the per-benchmark minimum over repeated lines. The trailing -N
// GOMAXPROCS suffix is stripped so baselines are host-shape independent.
func ParseBenchOutput(r io.Reader) (map[string]BenchResult, error) {
	out := map[string]BenchResult{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLineRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		res := BenchResult{NsPerOp: ns, Runs: 1}
		if mm := memRe.FindStringSubmatch(m[3]); mm != nil {
			res.BytesPerOp, _ = strconv.ParseFloat(mm[1], 64)
			res.AllocsPerOp, _ = strconv.ParseFloat(mm[2], 64)
			res.HasMem = true
		}
		prev, seen := out[name]
		if !seen {
			out[name] = res
			continue
		}
		prev.Runs++
		if res.NsPerOp < prev.NsPerOp {
			prev.NsPerOp = res.NsPerOp
		}
		if res.HasMem {
			if !prev.HasMem || res.AllocsPerOp < prev.AllocsPerOp {
				prev.AllocsPerOp = res.AllocsPerOp
			}
			if !prev.HasMem || res.BytesPerOp < prev.BytesPerOp {
				prev.BytesPerOp = res.BytesPerOp
			}
			prev.HasMem = true
		}
		out[name] = prev
	}
	return out, sc.Err()
}

// Band is one benchmark's acceptance ceiling. A zero field is unchecked.
type Band struct {
	MaxNsPerOp     float64 `json:"max_ns_per_op,omitempty"`
	MaxAllocsPerOp float64 `json:"max_allocs_per_op,omitempty"`
	Note           string  `json:"note,omitempty"`
}

// Baseline is the PERF_BASELINE.json document.
type Baseline struct {
	Note  string          `json:"note"`
	Bands map[string]Band `json:"bands"`
}

// LoadBaseline reads a baseline document.
func LoadBaseline(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Bands) == 0 {
		return b, fmt.Errorf("%s: no bands", path)
	}
	return b, nil
}

// Violation is one exceeded band (or a missing benchmark).
type Violation struct {
	Bench  string
	Metric string // "ns/op", "allocs/op", or "missing"
	Got    float64
	Limit  float64
}

func (v Violation) String() string {
	if v.Metric == "missing" {
		return fmt.Sprintf("FAIL %-28s not in the benchmark run (renamed or deleted? update PERF_BASELINE.json)", v.Bench)
	}
	return fmt.Sprintf("FAIL %-28s %-9s %12.0f > limit %12.0f  (%+.1f%%)",
		v.Bench, v.Metric, v.Got, v.Limit, 100*(v.Got/v.Limit-1))
}

// Compare checks every baseline band against the parsed results, in
// band-name order.
func Compare(base Baseline, got map[string]BenchResult) []Violation {
	names := make([]string, 0, len(base.Bands))
	for name := range base.Bands {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Violation
	for _, name := range names {
		band := base.Bands[name]
		res, ok := got[name]
		if !ok {
			out = append(out, Violation{Bench: name, Metric: "missing"})
			continue
		}
		if band.MaxNsPerOp > 0 && res.NsPerOp > band.MaxNsPerOp {
			out = append(out, Violation{Bench: name, Metric: "ns/op", Got: res.NsPerOp, Limit: band.MaxNsPerOp})
		}
		if band.MaxAllocsPerOp > 0 && res.HasMem && res.AllocsPerOp > band.MaxAllocsPerOp {
			out = append(out, Violation{Bench: name, Metric: "allocs/op", Got: res.AllocsPerOp, Limit: band.MaxAllocsPerOp})
		}
	}
	return out
}

// FormatReport renders the pass/fail table: one line per banded
// benchmark with its measured values against the limits, then the
// violations.
func FormatReport(base Baseline, got map[string]BenchResult, violations []Violation) string {
	names := make([]string, 0, len(base.Bands))
	for name := range base.Bands {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %14s %14s %12s %12s\n", "benchmark", "ns/op", "limit", "allocs/op", "limit")
	for _, name := range names {
		band := base.Bands[name]
		res, ok := got[name]
		if !ok {
			fmt.Fprintf(&b, "%-28s %14s\n", name, "MISSING")
			continue
		}
		allocs := "-"
		if res.HasMem {
			allocs = strconv.FormatFloat(res.AllocsPerOp, 'f', 0, 64)
		}
		fmt.Fprintf(&b, "%-28s %14.0f %14.0f %12s %12.0f\n",
			name, res.NsPerOp, band.MaxNsPerOp, allocs, band.MaxAllocsPerOp)
	}
	for _, v := range violations {
		fmt.Fprintln(&b, v)
	}
	if len(violations) == 0 {
		fmt.Fprintln(&b, "perf gate: all bands hold")
	}
	return b.String()
}
