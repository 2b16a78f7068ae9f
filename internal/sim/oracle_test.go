package sim

// Differential tests: the compiled program against the map-per-round
// simulator it replaced, kept here as a naive oracle together with the
// equivalence checks built on it.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/logic"
	"repro/internal/network"
)

// naiveEvalWords is the straightforward simulator: a TopoOrder walk that
// keeps every gate's word in a map.
func naiveEvalWords(n *network.Network, in map[string]uint64) map[string]uint64 {
	vals := make(map[*network.Gate]uint64, n.NumGates())
	var buf []uint64
	for _, g := range n.TopoOrder() {
		if g.IsInput() {
			vals[g] = in[g.Name()]
			continue
		}
		buf = buf[:0]
		for _, f := range g.Fanins() {
			buf = append(buf, vals[f])
		}
		vals[g] = g.Type.EvalWords(buf)
	}
	out := make(map[string]uint64)
	for _, po := range n.Outputs() {
		out[po.Name()] = vals[po]
	}
	return out
}

func naiveInterfaceNames(n *network.Network) (pis, pos []string) {
	for _, g := range n.Inputs() {
		pis = append(pis, g.Name())
	}
	for _, g := range n.Outputs() {
		pos = append(pos, g.Name())
	}
	sort.Strings(pis)
	sort.Strings(pos)
	return pis, pos
}

func naiveExtractCE(in map[string]uint64, po string, wa, wb uint64) *Counterexample {
	diff := wa ^ wb
	bit := 0
	for ; bit < 64; bit++ {
		if diff>>bit&1 == 1 {
			break
		}
	}
	ce := &Counterexample{
		Inputs: make(map[string]logic.Bit, len(in)),
		Output: po,
		A:      logic.Bit(wa >> bit & 1),
		B:      logic.Bit(wb >> bit & 1),
	}
	for name, w := range in {
		ce.Inputs[name] = logic.Bit(w >> bit & 1)
	}
	return ce
}

func naiveEquivalentRandom(a, b *network.Network, rounds int, seed int64) (*Counterexample, error) {
	apis, apos := naiveInterfaceNames(a)
	bpis, bpos := naiveInterfaceNames(b)
	if err := sameInterface(apis, apos, bpis, bpos); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := make(map[string]uint64, len(apis))
	for r := 0; r < rounds; r++ {
		for _, pi := range apis {
			in[pi] = rng.Uint64()
		}
		outA := naiveEvalWords(a, in)
		outB := naiveEvalWords(b, in)
		for _, po := range apos {
			if outA[po] != outB[po] {
				return naiveExtractCE(in, po, outA[po], outB[po]), nil
			}
		}
	}
	return nil, nil
}

func naiveEquivalentExhaustive(a, b *network.Network) (*Counterexample, error) {
	apis, apos := naiveInterfaceNames(a)
	bpis, bpos := naiveInterfaceNames(b)
	if err := sameInterface(apis, apos, bpis, bpos); err != nil {
		return nil, err
	}
	k := len(apis)
	total := uint64(1) << k
	in := make(map[string]uint64, k)
	for base := uint64(0); base < total; base += 64 {
		for i, pi := range apis {
			var w uint64
			for bit := uint64(0); bit < 64 && base+bit < total; bit++ {
				if (base+bit)>>uint(i)&1 == 1 {
					w |= 1 << bit
				}
			}
			in[pi] = w
		}
		mask := ^uint64(0)
		if valid := total - base; valid < 64 {
			mask = (1 << valid) - 1
		}
		outA := naiveEvalWords(a, in)
		outB := naiveEvalWords(b, in)
		for _, po := range apos {
			if (outA[po]^outB[po])&mask != 0 {
				return naiveExtractCE(in, po, outA[po]&mask, outB[po]&mask), nil
			}
		}
	}
	return nil, nil
}

// diffCircuit builds a seeded random circuit covering the shapes the
// compiler must get right: a duplicate fanin (AND(a, a)), INV and BUF
// gates, 2- and 3-input gates, a PI that is also a PO, several POs, and
// a backward rewire that leaves creation order non-topological.
func diffCircuit(seed int64) *network.Network {
	rng := rand.New(rand.NewSource(seed))
	n := network.New("diff")
	numIn := 3 + rng.Intn(6)
	pool := make([]*network.Gate, 0, numIn+40)
	for i := range numIn {
		pool = append(pool, n.AddInput(fiName(i)))
	}
	pick := func() *network.Gate { return pool[rng.Intn(len(pool))] }
	a := pick()
	pool = append(pool,
		n.AddGate("dup", logic.And, a, a),
		n.AddGate("inv", logic.Inv, pick()),
		n.AddGate("buf", logic.Buf, pick()))
	types := []logic.GateType{logic.And, logic.Or, logic.Xor, logic.Nand, logic.Nor, logic.Xnor, logic.Inv, logic.Buf}
	for range 8 + rng.Intn(30) {
		t := types[rng.Intn(len(types))]
		fi := []*network.Gate{pick()}
		if !t.IsUnary() {
			for range 1 + rng.Intn(2) {
				fi = append(fi, pick())
			}
		}
		pool = append(pool, n.AddGate(n.FreshName("g"), t, fi...))
	}
	n.MarkOutput(pool[rng.Intn(numIn)])
	n.MarkOutput(pool[len(pool)-1])
	for range 3 {
		n.MarkOutput(pool[numIn+rng.Intn(len(pool)-numIn)])
	}
	rewireBackward(n, rng, pool[numIn:])
	return n
}

// rewireBackward points a pin of an earlier-created gate at a later one
// outside its fanout cone, so the rewire stays acyclic but the creation
// order stops being topological.
func rewireBackward(n *network.Network, rng *rand.Rand, gates []*network.Gate) {
	for range 20 {
		i := rng.Intn(len(gates) - 1)
		g, d := gates[i], gates[i+1+rng.Intn(len(gates)-i-1)]
		if !reaches(g, d) {
			n.ReplaceFanin(g, rng.Intn(g.NumFanins()), d)
			return
		}
	}
}

// reaches reports whether d is g or lies in g's transitive fanout.
func reaches(g, d *network.Gate) bool {
	seen := map[*network.Gate]bool{}
	stack := []*network.Gate{g}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == d {
			return true
		}
		if !seen[x] {
			seen[x] = true
			stack = append(stack, x.Fanouts()...)
		}
	}
	return false
}

// creationTopological reports whether every gate's fanins were created
// before it, the case TopoOrderFast serves without falling back.
func creationTopological(n *network.Network) bool {
	ok := true
	n.Gates(func(g *network.Gate) {
		for _, f := range g.Fanins() {
			ok = ok && f.ID() < g.ID()
		}
	})
	return ok
}

// corrupt changes b's function in place most of the time: a rewire, or a
// type flip of a logic gate driving a PO. Some changes are masked and
// leave the function intact.
func corrupt(b *network.Network, rng *rand.Rand) {
	var logicGates, poGates []*network.Gate
	b.Gates(func(g *network.Gate) {
		if !g.IsInput() {
			logicGates = append(logicGates, g)
			if g.PO {
				poGates = append(poGates, g)
			}
		}
	})
	g := poGates[rng.Intn(len(poGates))]
	switch {
	case rng.Intn(2) == 0:
		rewireBackward(b, rng, logicGates)
	case g.Type == logic.Inv:
		b.SetGateType(g, logic.Buf)
	case g.Type == logic.Buf:
		b.SetGateType(g, logic.Inv)
	default:
		flip := map[logic.GateType]logic.GateType{
			logic.And: logic.Or, logic.Or: logic.Xor, logic.Xor: logic.Nand,
			logic.Nand: logic.Nor, logic.Nor: logic.Xnor, logic.Xnor: logic.And,
		}
		b.SetGateType(g, flip[g.Type])
	}
}

func TestCompiledMatchesNaiveOracle(t *testing.T) {
	fallbacks := 0
	for seed := int64(0); seed < 200; seed++ {
		n := diffCircuit(seed)
		if !creationTopological(n) {
			fallbacks++
		}
		rng := rand.New(rand.NewSource(seed))
		pis, _ := naiveInterfaceNames(n)
		for round := range 4 {
			in := make(map[string]uint64, len(pis))
			for i, pi := range pis {
				// Round 3 leaves every other input out: missing reads as zero.
				if round < 3 || i%2 == 0 {
					in[pi] = rng.Uint64()
				}
			}
			got, want := EvalWords(n, in), naiveEvalWords(n, in)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d: compiled %v, oracle %v", seed, round, got, want)
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("no circuit had a non-topological creation order")
	}
}

// sameCheck asserts two equivalence-check outcomes agree field for field,
// error text included.
func sameCheck(t *testing.T, what string, ce, wantCE *Counterexample, err, wantErr error) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, oracle %v", what, err, wantErr)
	}
	if !reflect.DeepEqual(ce, wantCE) {
		t.Fatalf("%s: counterexample %v, oracle %v", what, ce, wantCE)
	}
}

func TestCounterexamplesMatchNaiveOracle(t *testing.T) {
	found := 0
	for seed := int64(0); seed < 200; seed++ {
		a := diffCircuit(seed)
		b, _ := a.Clone()
		corrupt(b, rand.New(rand.NewSource(seed)))
		ce, err := EquivalentRandom(a, b, 3, seed)
		wantCE, wantErr := naiveEquivalentRandom(a, b, 3, seed)
		sameCheck(t, fmt.Sprintf("seed %d random", seed), ce, wantCE, err, wantErr)
		ce, err = EquivalentExhaustive(a, b)
		wantCE, wantErr = naiveEquivalentExhaustive(a, b)
		sameCheck(t, fmt.Sprintf("seed %d exhaustive", seed), ce, wantCE, err, wantErr)
		if ce != nil {
			found++
		}

		// A renamed PO is an interface error, worded as before.
		po := b.Outputs()[0]
		b.Rename(po, po.Name()+"_renamed")
		ce, err = EquivalentRandom(a, b, 3, seed)
		wantCE, wantErr = naiveEquivalentRandom(a, b, 3, seed)
		sameCheck(t, fmt.Sprintf("seed %d renamed", seed), ce, wantCE, err, wantErr)
		if err == nil {
			t.Fatalf("seed %d: renamed PO not reported", seed)
		}
	}
	t.Logf("%d of 200 corrupted pairs differ", found)
	if found < 80 {
		t.Fatalf("only %d of 200 corrupted pairs differ; the corruption is too weak", found)
	}
}

func TestCaptureCheckReusesReference(t *testing.T) {
	a := mux("a")
	ref := Capture(a, 4, 9)
	for _, n := range []*network.Network{a, muxNand("b")} {
		if ce, err := ref.Check(n); ce != nil || err != nil {
			t.Fatalf("Check(%s): ce=%v err=%v", n.Name(), ce, err)
		}
	}
	b := mux("c")
	b.ReplaceFanin(b.FindGate("f"), 0, b.FindGate("sn"))
	ce, err := ref.Check(b)
	if err != nil || ce == nil {
		t.Fatalf("Check(corrupted): ce=%v err=%v", ce, err)
	}
	if Eval(a, ce.Inputs)[ce.Output] == Eval(b, ce.Inputs)[ce.Output] {
		t.Fatalf("counterexample %v does not distinguish the networks", ce)
	}
}
