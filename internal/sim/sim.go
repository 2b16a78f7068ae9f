// Package sim provides 64-way bit-parallel logic simulation of mapped
// Boolean networks and simulation-based equivalence checking. It is the
// verification oracle of this reproduction: every rewiring move the
// supergate theory claims to be function-preserving is checked against it
// in tests, and the facade checks every optimized circuit against the
// responses Capture recorded from its input.
//
// Every entry point runs one evaluator: a network is compiled once into a
// program (one dense value slot per live gate in topological order, fanins
// as slot arrays, PIs and POs as slots in name order) that is then
// evaluated round after round into one reused word array.
package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/logic"
	"repro/internal/network"
)

// program is a network compiled for repeated 64-pattern simulation.
type program struct {
	pis, pos       []string // interface names, sorted
	piSlot, poSlot []int32  // value slot of pis[i] and pos[i]
	ops            []op     // logic gates in topological order
	fanin          []int32  // fanin slots of every op, concatenated
	vals           []uint64 // one word per live gate
	buf            []uint64 // scratch fanin words for GateType.EvalWords
}

// op evaluates one logic gate: vals[out] = t(vals[fanin[lo:hi]]).
type op struct {
	t      logic.GateType
	out    int32
	lo, hi int32
}

// port is an interface gate's name and value slot.
type port struct {
	name string
	slot int32
}

// compile assigns every live gate of n a slot in TopoOrderFast order. It
// panics if n contains a cycle.
func compile(n *network.Network) *program {
	order := n.TopoOrderFast()
	slot := make([]int32, n.IDBound())
	edges, width := 0, 0
	for _, g := range order {
		edges += g.NumFanins()
		width = max(width, g.NumFanins())
	}
	p := &program{
		fanin: make([]int32, 0, edges),
		vals:  make([]uint64, len(order)),
		buf:   make([]uint64, 0, width),
	}
	var pis, pos []port
	for i, g := range order {
		s := int32(i)
		slot[g.ID()] = s
		if g.PO {
			pos = append(pos, port{g.Name(), s})
		}
		if g.IsInput() {
			pis = append(pis, port{g.Name(), s})
			continue
		}
		lo := int32(len(p.fanin))
		for _, f := range g.Fanins() {
			p.fanin = append(p.fanin, slot[f.ID()])
		}
		p.ops = append(p.ops, op{g.Type, s, lo, int32(len(p.fanin))})
	}
	p.pis, p.piSlot = sortPorts(pis)
	p.pos, p.poSlot = sortPorts(pos)
	return p
}

func sortPorts(ps []port) ([]string, []int32) {
	slices.SortFunc(ps, func(a, b port) int { return cmp.Compare(a.name, b.name) })
	names := make([]string, len(ps))
	slots := make([]int32, len(ps))
	for i, p := range ps {
		names[i], slots[i] = p.name, p.slot
	}
	return names, slots
}

// run evaluates every logic gate from the PI words already in vals.
func (p *program) run() {
	for _, o := range p.ops {
		buf := p.buf[:0]
		for _, s := range p.fanin[o.lo:o.hi] {
			buf = append(buf, p.vals[s])
		}
		p.vals[o.out] = o.t.EvalWords(buf)
	}
}

// randomRound draws one round of PI words from rng in PI name order and
// evaluates it.
func (p *program) randomRound(rng *rand.Rand) {
	for _, s := range p.piSlot {
		p.vals[s] = rng.Uint64()
	}
	p.run()
}

// counterexample reports output pos[po] disagreeing on the lowest set bit
// of wa^wb, under that bit of the PI words in vals.
func (p *program) counterexample(po int, wa, wb uint64) *Counterexample {
	bit := bits.TrailingZeros64(wa ^ wb)
	ce := &Counterexample{
		Inputs: make(map[string]logic.Bit, len(p.pis)),
		Output: p.pos[po],
		A:      logic.Bit(wa >> bit & 1),
		B:      logic.Bit(wb >> bit & 1),
	}
	for i, name := range p.pis {
		ce.Inputs[name] = logic.Bit(p.vals[p.piSlot[i]] >> bit & 1)
	}
	return ce
}

// EvalWords simulates one 64-pattern round. in maps primary-input names to
// 64 packed patterns (bit i of each word is pattern i). The result maps
// primary-output names to their packed responses. Missing inputs default
// to all-zero words.
func EvalWords(n *network.Network, in map[string]uint64) map[string]uint64 {
	p := compile(n)
	for i, name := range p.pis {
		p.vals[p.piSlot[i]] = in[name]
	}
	p.run()
	out := make(map[string]uint64, len(p.pos))
	for i, name := range p.pos {
		out[name] = p.vals[p.poSlot[i]]
	}
	return out
}

// Eval simulates one single-bit pattern given by primary-input name.
func Eval(n *network.Network, in map[string]logic.Bit) map[string]logic.Bit {
	words := make(map[string]uint64, len(in))
	for name, b := range in {
		words[name] = uint64(b)
	}
	outWords := EvalWords(n, words)
	out := make(map[string]logic.Bit, len(outWords))
	for name, w := range outWords {
		out[name] = logic.Bit(w & 1)
	}
	return out
}

// Counterexample describes a single input pattern on which two networks
// disagree.
type Counterexample struct {
	Inputs map[string]logic.Bit
	Output string // name of a disagreeing primary output
	A, B   logic.Bit
}

func (c *Counterexample) String() string {
	return fmt.Sprintf("output %s: A=%d B=%d under %v", c.Output, c.A, c.B, c.Inputs)
}

// sameInterface compares two sorted PI and PO name sets.
func sameInterface(apis, apos, bpis, bpos []string) error {
	if len(apis) != len(bpis) {
		return fmt.Errorf("sim: PI count differs: %d vs %d", len(apis), len(bpis))
	}
	for i := range apis {
		if apis[i] != bpis[i] {
			return fmt.Errorf("sim: PI sets differ at %q vs %q", apis[i], bpis[i])
		}
	}
	if len(apos) != len(bpos) {
		return fmt.Errorf("sim: PO count differs: %d vs %d", len(apos), len(bpos))
	}
	for i := range apos {
		if apos[i] != bpos[i] {
			return fmt.Errorf("sim: PO sets differ at %q vs %q", apos[i], bpos[i])
		}
	}
	return nil
}

// Reference is a network's recorded response to rounds×64 pseudo-random
// patterns: enough to check another network against it without keeping
// the original network around.
type Reference struct {
	pis, pos []string
	rounds   int
	seed     int64
	resp     []uint64 // rounds × len(pos) response words, round-major
}

// Capture simulates n on rounds×64 pseudo-random patterns derived from
// seed and records its PO responses.
func Capture(n *network.Network, rounds int, seed int64) *Reference {
	p := compile(n)
	r := &Reference{pis: p.pis, pos: p.pos, rounds: rounds, seed: seed,
		resp: make([]uint64, 0, max(rounds, 0)*len(p.pos))}
	rng := rand.New(rand.NewSource(seed))
	for range rounds {
		p.randomRound(rng)
		for _, s := range p.poSlot {
			r.resp = append(r.resp, p.vals[s])
		}
	}
	return r
}

// Check simulates n on the captured pattern set and compares every PO on
// every round against the reference. n must have the reference's PI and
// PO name sets; otherwise an error is returned. On disagreement it returns
// the counterexample of the first disagreeing round, PO (in name order)
// and pattern, with A the reference's response and B n's. A nil
// counterexample with nil error means no difference was observed
// (probabilistic equivalence).
func (r *Reference) Check(n *network.Network) (*Counterexample, error) {
	p := compile(n)
	if err := sameInterface(r.pis, r.pos, p.pis, p.pos); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.seed))
	for round := range r.rounds {
		p.randomRound(rng)
		want := r.resp[round*len(r.pos):]
		for i, s := range p.poSlot {
			if p.vals[s] != want[i] {
				return p.counterexample(i, want[i], p.vals[s]), nil
			}
		}
	}
	return nil, nil
}

// EquivalentRandom checks a and b on rounds×64 pseudo-random patterns
// derived from seed: Capture(a, rounds, seed).Check(b).
func EquivalentRandom(a, b *network.Network, rounds int, seed int64) (*Counterexample, error) {
	return Capture(a, rounds, seed).Check(b)
}

// MaxExhaustiveInputs bounds EquivalentExhaustive: 2^20 patterns.
const MaxExhaustiveInputs = 20

// EquivalentExhaustive checks a and b on all 2^k input patterns, where k is
// the number of primary inputs. It returns an error when k exceeds
// MaxExhaustiveInputs. A nil counterexample means proven equivalence.
func EquivalentExhaustive(a, b *network.Network) (*Counterexample, error) {
	pa, pb := compile(a), compile(b)
	if err := sameInterface(pa.pis, pa.pos, pb.pis, pb.pos); err != nil {
		return nil, err
	}
	k := len(pa.pis)
	if k > MaxExhaustiveInputs {
		return nil, fmt.Errorf("sim: %d inputs exceed exhaustive limit %d", k, MaxExhaustiveInputs)
	}
	total := uint64(1) << k
	// Enumerate patterns in blocks of 64: pattern index = base + bit.
	for base := uint64(0); base < total; base += 64 {
		for i := range pa.pis {
			var w uint64
			for bit := uint64(0); bit < 64 && base+bit < total; bit++ {
				if (base+bit)>>uint(i)&1 == 1 {
					w |= 1 << bit
				}
			}
			pa.vals[pa.piSlot[i]] = w
			pb.vals[pb.piSlot[i]] = w
		}
		valid := total - base
		var mask uint64 = ^uint64(0)
		if valid < 64 {
			mask = (1 << valid) - 1
		}
		pa.run()
		pb.run()
		for i := range pa.pos {
			wa, wb := pa.vals[pa.poSlot[i]]&mask, pb.vals[pb.poSlot[i]]&mask
			if wa != wb {
				return pa.counterexample(i, wa, wb), nil
			}
		}
	}
	return nil, nil
}

// Equivalent picks the strongest affordable check: exhaustive when the
// input count permits, otherwise rounds×64 random patterns.
func Equivalent(a, b *network.Network, rounds int, seed int64) (*Counterexample, error) {
	if len(a.Inputs()) <= MaxExhaustiveInputs {
		return EquivalentExhaustive(a, b)
	}
	return EquivalentRandom(a, b, rounds, seed)
}

// Signature returns a seed-deterministic 64-bit hash of the network's
// input/output behaviour over rounds×64 random patterns. Functionally
// equal networks with the same interface always produce equal signatures;
// unequal ones almost surely differ.
func Signature(n *network.Network, rounds int, seed int64) uint64 {
	p := compile(n)
	rng := rand.New(rand.NewSource(seed))
	const fnvOffset = 14695981039346656037
	const fnvPrime = 1099511628211
	h := uint64(fnvOffset)
	for range rounds {
		p.randomRound(rng)
		for _, s := range p.poSlot {
			w := p.vals[s]
			for b := 0; b < 64; b += 8 {
				h ^= w >> b & 0xff
				h *= fnvPrime
			}
		}
	}
	return h
}
