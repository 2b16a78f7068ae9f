// Command bench is the repository's end-to-end benchmark. Four workloads
// drive the optimizer in process (opt-s38417, opt-regions) and a real
// rapidsd binary over HTTP (service-mixed, eco-session); every output is
// checked, and every metric is printed as
//
//	workload metric value unit (n=samples)
//
// followed by one JSON result line. An untraced run reports the
// end-to-end metrics; a traced run (-trace) reports the per-layer ones
// and writes its spans as JSON lines. README.md documents the workloads,
// the metrics and how to compare two commits.
//
// Usage, from this directory:
//
//	go run . -seed 1                      all workloads, untraced
//	go run . -seed 1 -trace trace.jsonl   plus a traced run of each
//	go run . -workload eco-session -seed 3 -seconds 20 -trace 1
//	go run . -quick                       a few ops of each on c432/alu2
//
// run.sh builds the benchmark under .bench_build at the repository root
// and runs it from there.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/rapids"
)

// workload is one set of inputs and the closed loop that drives them.
type workload struct {
	name string
	run  func(*env) error
}

var workloads = []workload{
	{"opt-s38417", func(e *env) error { return runOpt(e, false) }},
	{"opt-regions", func(e *env) error { return runOpt(e, true) }},
	{"service-mixed", runService},
	{"eco-session", runEco},
}

// endToEnd and perLayer name the metrics of the JSON result line of an
// untraced and a traced run; BENCHMARK.json lists the same names.
var (
	endToEnd = []string{"setup_s", "ops_per_s", "latency_p50_ms", "delay_improve_pct", "peak_rss_mb"}
	perLayer = []string{
		"rapids.optimize_ms", "rapids.seed_ms", "rapids.cpu_util", "proc.cpu_ms_per_op",
		"gen.ms", "place.ms",
		"sta.analyze_ms", "supergate.extract_ms", "opt.score_ms", "opt.score_w1_ms",
		"region.roundtrip_ms", "sim.verify_ms", "network.snapshot_ms", "journal.append_ms",
		"rapids.session.apply_ms", "rapids.session.retime_ms", "rapids.session.publish_ms",
		"trace_overhead_pct",
	}
)

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 3

// env is what a workload run gets: its inputs' seed, its budget, the
// tracer (nil when untraced) and the report it fills.
type env struct {
	seed    int64
	seconds time.Duration
	quick   bool
	tr      *tracer
	rapidsd string
	tmp     string
	rep     *report

	genMS, placeMS []float64
}

// tracedOp reports whether op i of a client is traced: a traced run
// alternates traced and untraced ops, so trace_overhead_pct compares
// the two under the same conditions.
func (e *env) tracedOp(i int) bool { return e.tr != nil && i%2 == 1 }

// opCount is how many ops each client runs: the run length, -seconds,
// times the workload's op rate per client on the host the baseline
// comes from (README.md), so both sides of a comparison do the same
// work. quick is the count of a -quick run.
func (e *env) opCount(perSecond float64, quick int) int {
	if e.quick {
		return quick
	}
	return max(1, int(math.Round(e.seconds.Seconds()*perSecond)))
}

// placed generates a benchmark circuit and places it, timing both steps
// for gen.ms and place.ms.
func (e *env) placed(name string, seed int64) (*rapids.Circuit, error) {
	t0 := time.Now()
	c, err := rapids.Generate(name)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	c.Place(rapids.PlaceSeed(seed))
	e.genMS = append(e.genMS, ms(t1.Sub(t0)))
	e.placeMS = append(e.placeMS, ms(time.Since(t1)))
	return c, nil
}

// addProcess adds the per-layer metrics of the process doing the work,
// which used cpu over window for ops ops, and of the set-up's Generate
// and Place calls.
func (e *env) addProcess(cpu, window time.Duration, ops int) {
	e.rep.add("rapids.cpu_util", cpu.Seconds()/window.Seconds(), "cores", ops)
	e.rep.add("proc.cpu_ms_per_op", ms(cpu)/float64(ops), "ms", ops)
	e.rep.add("gen.ms", median(e.genMS), "ms", len(e.genMS))
	e.rep.add("place.ms", median(e.placeMS), "ms", len(e.placeMS))
}

// traceOverhead adds trace_overhead_pct: the traced ops' median latency
// over the untraced ops' median, in percent.
func (e *env) traceOverhead(traced, untraced []float64) {
	e.rep.add("trace_overhead_pct", 100*(median(traced)/median(untraced)-1), "%", len(traced)+len(untraced))
}

type metric struct {
	name    string
	value   float64
	unit    string
	n       int
	refused bool
}

// report collects a run's metrics and its correctness checks. attempted
// counts ops plus run-level checks; failed counts those with any failed
// check.
type report struct {
	mu        sync.Mutex
	metrics   []metric
	attempted int
	failed    int
	problems  []string
}

func (r *report) add(name string, v float64, unit string, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, metric{name: name, value: v, unit: unit, n: n})
}

// percentile adds the p-th percentile of xs, marked refused when too
// few samples lie beyond it.
func (r *report) percentile(name string, xs []float64, p float64, unit string) {
	v, ok := percentile(xs, p)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, metric{name: name, value: v, unit: unit, n: len(xs), refused: !ok})
}

// record counts one attempted op or run-level check; it failed when c
// holds any failed expectation.
func (r *report) record(c checks) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if len(c) > 0 {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, c...)
		}
	}
}

// checks collects the failed expectations of one op.
type checks []string

func (c *checks) expect(ok bool, format string, args ...any) {
	if !ok {
		*c = append(*c, fmt.Sprintf(format, args...))
	}
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every metric as a text line, the failed checks to
// stderr, and the JSON result line with the metrics in names.
func (r *report) print(w io.Writer, workload string, names []string) error {
	for _, m := range r.metrics {
		if m.refused {
			fmt.Fprintf(w, "%s %s refused %s (n=%d: fewer than %d samples beyond it)\n", workload, m.name, m.unit, m.n, minBeyond)
			continue
		}
		fmt.Fprintf(w, "%s %s %.6g %s (n=%d)\n", workload, m.name, m.value, m.unit, m.n)
	}
	fmt.Fprintf(w, "%s error_rate %d/%d failed/attempted\n", workload, r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", workload, p)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, name := range names {
		i := slices.IndexFunc(r.metrics, func(m metric) bool { return m.name == name })
		if i < 0 || r.metrics[i].refused || math.IsNaN(r.metrics[i].value) || math.IsInf(r.metrics[i].value, 0) {
			return fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = jsonMetric{Value: r.metrics[i].value, Unit: r.metrics[i].unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: opt-s38417, opt-regions, service-mixed or eco-session (empty runs all four, each in its own process)")
		seed    = flag.Int64("seed", 1, "seed of every input generator")
		seconds = flag.Int("seconds", 20, "run length per workload: each runs the ops it completes in about this many seconds on the baseline host")
		trace   = flag.String("trace", "0", "0: untraced run (end-to-end metrics); 1 or a file name: traced run (per-layer metrics), spans written as JSON lines to the file (default .bench_build/trace-<workload>.jsonl)")
		quick   = flag.Bool("quick", false, "a few ops of each workload on c432/alu2")
		bin     = flag.String("rapidsd", "", "prebuilt rapidsd binary (empty builds cmd/rapidsd first)")
	)
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace, *quick, *bin); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds time.Duration, trace string, quick bool, bin string) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	work := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(work, "tmp"), 0o755); err != nil {
		return err
	}
	if bin == "" {
		if bin, err = buildRapidsd(root, filepath.Join(work, "bin")); err != nil {
			return err
		}
	}
	traced := trace != "0" && trace != ""
	if name == "" {
		if trace == "1" {
			trace = filepath.Join(work, "trace.jsonl")
		}
		return runAll(seed, seconds, trace, traced, quick, bin)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	tmp, err := os.MkdirTemp(filepath.Join(work, "tmp"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: seed, seconds: seconds, quick: quick, rapidsd: bin, tmp: tmp, rep: &report{}}
	names := endToEnd
	if traced {
		e.tr = newTracer()
		names = perLayer
		if trace == "1" {
			trace = filepath.Join(work, "trace-"+name+".jsonl")
		}
	}
	fmt.Println(hostLine())
	if err := w.run(e); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if traced {
		if err := e.tr.write(trace, name); err != nil {
			return err
		}
		fmt.Printf("# %d spans written to %s\n", len(e.tr.snapshot()), trace)
	}
	return e.rep.print(os.Stdout, name, names)
}

// runAll runs every workload in its own process, untraced and, when
// traced, once more traced; it relays their text lines, gathers their
// spans into trace, and ends with one JSON line whose metric names are
// prefixed by the workload.
func runAll(seed int64, seconds time.Duration, trace string, traced, quick bool, bin string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Println(hostLine())
	all := result{Correct: true, Metrics: map[string]jsonMetric{}}
	var parts []string
	for _, w := range workloads {
		modes := []string{"0"}
		if traced {
			modes = append(modes, trace+"."+w.name)
			parts = append(parts, modes[1])
		}
		for _, mode := range modes {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(int(seconds / time.Second)), "-trace", mode, "-rapidsd", bin}
			if quick {
				args = append(args, "-quick")
			}
			res, err := runChild(exe, args)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			all.Correct = all.Correct && res.Correct
			all.Attempted += res.Attempted
			all.Failed += res.Failed
			for k, v := range res.Metrics {
				all.Metrics[w.name+"/"+k] = v
			}
		}
	}
	if traced {
		if err := concatFiles(trace, parts); err != nil {
			return err
		}
		fmt.Printf("# spans written to %s\n", trace)
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	return nil
}

// runChild runs one workload process, relaying every stdout line but
// the last, which it parses as the run's result.
func runChild(exe string, args []string) (result, error) {
	var res result
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	if err := cmd.Start(); err != nil {
		return res, err
	}
	var last []byte
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if last != nil && !bytes.HasPrefix(last, []byte("# host")) {
			fmt.Printf("%s\n", last)
		}
		last = append(last[:0], sc.Bytes()...)
	}
	if err := cmd.Wait(); err != nil {
		return res, err
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("result line %q: %w", last, err)
	}
	return res, nil
}

func concatFiles(dst string, parts []string) error {
	var buf bytes.Buffer
	for _, p := range parts {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		buf.Write(b)
		os.Remove(p)
	}
	return os.WriteFile(dst, buf.Bytes(), 0o644)
}

// repoRoot walks up from the working directory to the root of the
// repository being measured: the directory whose go.mod declares module
// repro.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(b), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repository: no go.mod declaring module repro above the working directory")
		}
		dir = parent
	}
}
