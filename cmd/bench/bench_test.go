package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/rapids"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		name string
		xs   []float64
		p    float64
		want float64
		ok   bool
	}{
		{"median of three", []float64{3, 1, 2}, 50, 2, true},
		{"median of an even count is the lower middle", []float64{4, 1, 3, 2}, 50, 2, true},
		{"median of one", []float64{7}, 50, 7, true},
		{"p90 with exactly ten beyond", seq(100), 90, 90, true},
		{"p90 with nine beyond is refused", seq(99), 90, 90, false},
		{"p90 of a handful is refused", seq(12), 90, 11, false},
		{"p99 needs a thousand samples", seq(1000), 99, 990, true},
		{"empty", nil, 50, 0, false},
	} {
		got, ok := percentile(tc.xs, tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("%s: percentile(p%g) = %g, %v; want %g, %v", tc.name, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSelfTimeOverlappingAndNestedChildren(t *testing.T) {
	// parent [0,100]: children a [10,40] and b [30,60] overlap, c
	// [90,120] sticks out past the parent's end; a has a nested child d.
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 40, 2: 25, 3: 30, 4: 30, 5: 5}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	if c := childCover(spans)[1]; c != 60 {
		t.Errorf("parent child cover = %v, want 60 (the overlap counts once, the overhang not at all)", c)
	}
}

func TestJobGenDeterministicPerSeed(t *testing.T) {
	take := func(seed int64, client int) []jobSpec {
		g := newJobGen(seed, client, serviceCircuits)
		var out []jobSpec
		for i := 0; i < 5*g.blockLen(); i++ {
			out = append(out, g.next())
		}
		return out
	}
	a, b := take(1, 0), take(1, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two job generators with one seed diverged")
	}
	if reflect.DeepEqual(a, take(2, 0)) {
		t.Fatal("job generators with seeds 1 and 2 agree")
	}

	// Cold specs never repeat within or across clients; every
	// resubmission names one of its client's last hitWindow cold specs;
	// a block is every circuit once plus a third as many resubmissions.
	seen := map[jobSpec]bool{}
	for client := 0; client < 2; client++ {
		var cold []jobSpec
		g := newJobGen(7, client, serviceCircuits)
		for blk := 0; blk < 5; blk++ {
			hits, circuits := 0, map[string]bool{}
			for i := 0; i < g.blockLen(); i++ {
				s := g.next()
				if !s.Hit {
					if seen[s] {
						t.Fatalf("cold spec %v repeats", s)
					}
					seen[s] = true
					circuits[s.Circuit] = true
					cold = append(cold, s)
					continue
				}
				if i == 0 {
					t.Fatal("a block opens with a resubmission")
				}
				hits++
				s.Hit = false
				recent := cold[max(0, len(cold)-hitWindow):]
				found := false
				for _, r := range recent {
					found = found || r == s
				}
				if !found {
					t.Fatalf("resubmission %v is not among the client's last %d cold specs", s, hitWindow)
				}
			}
			if len(circuits) != len(serviceCircuits) || hits != len(serviceCircuits)/3 {
				t.Fatalf("block %d: %d circuits and %d resubmissions", blk, len(circuits), hits)
			}
		}
	}
}

func placedAlu2(t *testing.T) *rapids.Circuit {
	t.Helper()
	c, err := rapids.Generate("alu2")
	if err != nil {
		t.Fatal(err)
	}
	c.Place(rapids.PlaceSeed(3))
	return c
}

func TestEditGenDeterministicPerSeed(t *testing.T) {
	c := placedAlu2(t)
	tab, crit := newEditTable(c), c.CriticalPath(0)
	take := func(seed int64) []editBatch {
		g := newEditGen(seed, 0, tab, c.DelayNS(), 10)
		var out []editBatch
		for i := 0; i < 200; i++ {
			out = append(out, g.next(crit))
		}
		return out
	}
	if !reflect.DeepEqual(take(1), take(1)) {
		t.Fatal("two edit generators with one seed diverged")
	}
	if reflect.DeepEqual(take(1), take(2)) {
		t.Fatal("edit generators with seeds 1 and 2 agree")
	}
}

// TestEditGenEmitsOnlyValidEdits feeds a generated stream, with every
// tenth batch re-optimizing, through the strict wire parser and a live
// session: every edit must parse, none may resize a primary input, and
// the session must accept every batch.
func TestEditGenEmitsOnlyValidEdits(t *testing.T) {
	c := placedAlu2(t)
	net := c.Network()
	s, err := c.Clone().BeginSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := newEditGen(5, 1, newEditTable(c), s.Clock(), 10)
	crit := s.View().CriticalPath
	kinds := map[rapids.EditKind]int{}
	for i := 0; i < 400; i++ {
		b := g.next(crit)
		data, err := json.Marshal([]rapids.Edit{b.Edit})
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := rapids.ParseEdits(data)
		if err != nil {
			t.Fatalf("batch %d: ParseEdits rejects %s: %v", i, data, err)
		}
		if e := parsed[0]; e.Kind == rapids.EditResize && net.FindGate(e.Gate).IsInput() {
			t.Fatalf("batch %d resizes primary input %s", i, e.Gate)
		}
		kinds[b.Edit.Kind]++
		d, err := s.Apply(parsed...)
		if err != nil {
			t.Fatalf("batch %d: session rejects %s: %v", i, data, err)
		}
		crit = d.CriticalPath
		if b.Reopt {
			if d, err = s.Reoptimize(context.Background()); err != nil {
				t.Fatalf("batch %d: reoptimize: %v", i, err)
			}
			crit = d.CriticalPath
		}
	}
	if kinds[rapids.EditResize] == 0 || kinds[rapids.EditPinRequired] == 0 {
		t.Errorf("edit mix %v lacks resizes or pins", kinds)
	}
}

// benchmarkSpec is the part of BENCHMARK.json this package checks.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

// TestBenchQuick builds and runs the benchmark with -quick, untraced and
// traced, and checks that it prints every metric BENCHMARK.json names,
// with its unit, for every workload, that every check passes, and that
// the spans reach the trace file.
func TestBenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
	}
	if !reflect.DeepEqual(e2e, endToEnd) || !reflect.DeepEqual(layer, perLayer) {
		t.Fatalf("BENCHMARK.json metrics %v / %v differ from the benchmark's %v / %v", e2e, layer, endToEnd, perLayer)
	}
	for i, w := range spec.Workload {
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Fatalf("BENCHMARK.json workload %d is %q; the benchmark runs %v", i, w.Name, workloads)
		}
	}

	dir := t.TempDir()
	bench := filepath.Join(dir, "bench")
	if out, err := exec.Command("go", "build", "-o", bench, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	rapidsd, err := buildRapidsd(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(dir, "trace.jsonl")
	cmd := exec.Command(bench, "-quick", "-seed", "3", "-rapidsd", rapidsd, "-trace", trace)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("bench -quick: %v\n%s%s", err, out, stderr.String())
	}

	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("checks failed: %+v\n%s", res, stderr.String())
	}
	units := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	printed := map[string]bool{}
	for _, line := range lines {
		// workload metric value unit (n=samples)
		f := strings.Fields(line)
		if len(f) == 5 && strings.HasPrefix(f[4], "(n=") {
			if unit, ok := units[f[1]]; ok && unit == f[3] {
				printed[f[0]+" "+f[1]] = true
			}
		}
	}
	for _, w := range workloads {
		for name := range units {
			if !printed[w.name+" "+name] {
				t.Errorf("%s: %s not printed with unit %s", w.name, name, units[name])
			}
			if _, ok := res.Metrics[w.name+"/"+name]; !ok {
				t.Errorf("%s: %s missing from the result line", w.name, name)
			}
		}
	}

	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	perWorkload := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		perWorkload[s.Workload]++
	}
	for _, w := range workloads {
		if perWorkload[w.name] == 0 {
			t.Errorf("no spans of %s in the trace file", w.name)
		}
	}
}
