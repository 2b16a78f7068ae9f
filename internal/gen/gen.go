// Package gen synthesizes deterministic benchmark circuits that stand in
// for the MCNC-91 and ISCAS-89 netlists of Table 1. The real benchmark
// files are not distributable with this reproduction, so each named circuit
// is generated from a seeded profile that reproduces the characteristics
// the paper's results depend on: total mapped gate count (±10 %), the
// gate-type mix (XOR-rich parity/multiplier arrays for c499/c1355/c6288,
// arithmetic slices for the alu circuits, wide PLA-like AND-OR planes for
// k2, control-style random logic with reconvergence elsewhere), fanout
// distribution, and injected absorption-redundancies mirroring the paper's
// redundancy counts.
//
// Circuits are emitted directly in mapped form — NAND, NOR, XOR, XNOR,
// INV, BUF with 2–4 inputs — so they are valid library netlists without a
// separate mapping step (real BLIF netlists can still be read with the
// blif package and mapped with techmap).
package gen

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/techmap"
)

// Profile parameterizes a generated benchmark.
type Profile struct {
	Name string
	Seed int64

	// NumPI is the number of primary inputs created up front.
	NumPI int
	// TargetGates is the desired number of logic gates (excluding PIs).
	TargetGates int

	// Structured blocks, built before random glue.
	AdderBits   []int // ripple-carry adders of the given widths
	ParityWidth []int // XOR parity trees of the given widths
	MultBits    int   // one MultBits×MultBits array multiplier if > 0
	PLATerms    int   // PLA plane: number of product terms
	PLALits     int   // literals per product term

	// Glue parameters.
	XorFrac   float64 // fraction of XOR/XNOR glue gates
	NorFrac   float64 // fraction of NOR among non-XOR glue (rest NAND)
	InvFrac   float64 // fraction of inverter glue gates
	Locality  float64 // 0..1 preference for recently created signals
	MaxFanin  int     // glue gate fanin bound (2..4)
	Redundant int     // number of injected absorption redundancies
}

type builder struct {
	n     *network.Network
	rng   *rand.Rand
	p     Profile
	pool  []*network.Gate
	gates int
	// shield suppresses pool registration of newly created gates, keeping
	// the interior of a structured block fanout-free so it survives as
	// one large supergate (the PLA plane behind k2's L = 43 column).
	shield bool
}

func (b *builder) pick() *network.Gate {
	if b.rng.Float64() < b.p.Locality {
		window := 32
		if window > len(b.pool) {
			window = len(b.pool)
		}
		return b.pool[len(b.pool)-1-b.rng.Intn(window)]
	}
	return b.pool[b.rng.Intn(len(b.pool))]
}

func (b *builder) add(t logic.GateType, fanins ...*network.Gate) *network.Gate {
	g := b.n.AddGate(fmt.Sprintf("n%d", b.gates), t, fanins...)
	b.gates++
	if !b.shield {
		b.pool = append(b.pool, g)
	}
	return g
}

func (b *builder) inv(x *network.Gate) *network.Gate { return b.add(logic.Inv, x) }

// and builds INV(NAND(xs)) — the mapped form of AND.
func (b *builder) and(xs ...*network.Gate) *network.Gate {
	return b.inv(b.add(logic.Nand, xs...))
}

// or builds INV(NOR(xs)).
func (b *builder) or(xs ...*network.Gate) *network.Gate {
	return b.inv(b.add(logic.Nor, xs...))
}

// tree reduces xs with gates of the given type and fanin bound. combine is
// called per chunk; used for associative reductions.
func (b *builder) tree(xs []*network.Gate, fanin int, combine func([]*network.Gate) *network.Gate) *network.Gate {
	cur := xs
	for len(cur) > 1 {
		var next []*network.Gate
		for i := 0; i < len(cur); i += fanin {
			end := i + fanin
			if end > len(cur) {
				end = len(cur)
			}
			chunk := cur[i:end]
			if len(chunk) == 1 {
				next = append(next, chunk[0])
				continue
			}
			next = append(next, combine(chunk))
		}
		cur = next
	}
	return cur[0]
}

// xorTree builds a parity tree over xs.
func (b *builder) xorTree(xs []*network.Gate, fanin int) *network.Gate {
	return b.tree(xs, fanin, func(c []*network.Gate) *network.Gate {
		return b.add(logic.Xor, c...)
	})
}

// andTree builds a wide AND as alternating NAND/NOR levels (DeMorgan
// form), which supergate extraction recovers as one large AND supergate.
func (b *builder) andTree(xs []*network.Gate, fanin int) *network.Gate {
	inverted := false // signals currently carry x (false) or !x (true)
	cur := xs
	for len(cur) > 1 || inverted {
		if len(cur) == 1 {
			cur = []*network.Gate{b.inv(cur[0])}
			inverted = !inverted
			continue
		}
		var next []*network.Gate
		t := logic.Nand // AND of plain signals, output inverted
		if inverted {
			t = logic.Nor // AND of inverted signals = NOR, output plain...
		}
		for i := 0; i < len(cur); i += fanin {
			end := i + fanin
			if end > len(cur) {
				end = len(cur)
			}
			chunk := cur[i:end]
			if len(chunk) == 1 {
				// Parity fix so all signals at this level share polarity.
				next = append(next, b.inv(chunk[0]))
				continue
			}
			next = append(next, b.add(t, chunk...))
		}
		cur = next
		inverted = !inverted
	}
	return cur[0]
}

// fullAdder returns (sum, carry) built from one XOR3 and a NAND majority.
func (b *builder) fullAdder(a, x, c *network.Gate) (sum, cout *network.Gate) {
	sum = b.add(logic.Xor, a, x, c)
	ab := b.add(logic.Nand, a, x)
	ac := b.add(logic.Nand, a, c)
	bc := b.add(logic.Nand, x, c)
	cout = b.add(logic.Nand, ab, ac, bc)
	return sum, cout
}

// rippleAdder sums two vectors of existing signals.
func (b *builder) rippleAdder(bits int) {
	carry := b.pick()
	for i := 0; i < bits; i++ {
		_, carry = b.fullAdder(b.pick(), b.pick(), carry)
	}
}

// multiplier builds a w×w partial-product array with ripple reduction.
func (b *builder) multiplier(w int) {
	a := make([]*network.Gate, w)
	x := make([]*network.Gate, w)
	for i := range a {
		a[i] = b.pick()
		x[i] = b.pick()
	}
	// Partial products, reduced column by column with full adders.
	cols := make([][]*network.Gate, 2*w)
	for i := 0; i < w; i++ {
		for j := 0; j < w; j++ {
			cols[i+j] = append(cols[i+j], b.and(a[i], x[j]))
		}
	}
	for c := 0; c < len(cols); c++ {
		for len(cols[c]) > 1 {
			if len(cols[c]) == 2 {
				s := b.add(logic.Xor, cols[c][0], cols[c][1])
				carry := b.and(cols[c][0], cols[c][1])
				cols[c] = []*network.Gate{s}
				if c+1 < len(cols) {
					cols[c+1] = append(cols[c+1], carry)
				}
				continue
			}
			s, carry := b.fullAdder(cols[c][0], cols[c][1], cols[c][2])
			cols[c] = append([]*network.Gate{s}, cols[c][3:]...)
			if c+1 < len(cols) {
				cols[c+1] = append(cols[c+1], carry)
			}
		}
	}
}

// pla builds a two-level AND-OR plane: terms wide product terms feeding
// one wide OR. The OR plane becomes a single large supergate (the source
// of k2's 43-input supergate in Table 1).
func (b *builder) pla(terms, lits int) {
	// The plane's interior must stay fanout-free (glue must not tap it)
	// or the OR plane fragments into small supergates instead of one
	// supergate with `terms` inputs.
	b.shield = true
	products := make([]*network.Gate, terms)
	for t := 0; t < terms; t++ {
		ins := make([]*network.Gate, lits)
		for i := range ins {
			s := b.pick()
			if b.rng.Intn(2) == 0 {
				s = b.inv(s)
			}
			ins[i] = s
		}
		products[t] = b.andTree(ins, 4)
	}
	out := b.tree(products, 4, func(c []*network.Gate) *network.Gate {
		return b.inv(b.add(logic.Nor, c...))
	})
	b.shield = false
	b.pool = append(b.pool, out)
}

// injectRedundancy adds a duplicate-literal pattern
// AND(g, AND(g, x)) ≡ AND(g, x) in mapped form NAND(g, INV(NAND(g, x))).
// Direct backward implication from the outer gate reaches the stem g
// through both branches with the same implied value — the Fig. 1(b)
// situation supergate extraction detects (one branch of the g stem is
// stuck-at untestable).
func (b *builder) injectRedundancy() {
	g := b.pick()
	x := b.pick()
	if b.rng.Intn(4) != 0 {
		// Duplicated literal in a product term — NAND(g, g, x) ≡
		// NAND(g, x) — the dominant redundancy shape of PLA-derived
		// circuits like i8: one gate, one untestable branch.
		b.add(logic.Nand, g, g, x)
		return
	}
	// Deeper variant: AND(g, AND(g, x)) in mapped form
	// NAND(g, INV(NAND(g, x))). The interior is shielded so later picks
	// cannot add fanouts that would stop the backward implication before
	// the stem; the outer gate joins the pool, embedding the pattern in
	// downstream logic.
	b.shield = true
	inner := b.add(logic.Nand, g, x)
	mid := b.inv(inner)
	b.shield = false
	b.add(logic.Nand, g, mid)
}

// glue adds one random gate using the profile's type mix.
func (b *builder) glue() {
	r := b.rng.Float64()
	maxF := b.p.MaxFanin
	if maxF < 2 {
		maxF = 4
	}
	k := 2 + b.rng.Intn(maxF-1)
	fanins := make([]*network.Gate, 0, k)
	seen := make(map[*network.Gate]bool, k)
	for len(fanins) < k {
		f := b.pick()
		if seen[f] {
			continue
		}
		seen[f] = true
		fanins = append(fanins, f)
	}
	switch {
	case r < b.p.InvFrac:
		b.inv(fanins[0])
	case r < b.p.InvFrac+b.p.XorFrac:
		if b.rng.Intn(2) == 0 {
			b.add(logic.Xor, fanins...)
		} else {
			b.add(logic.Xnor, fanins...)
		}
	default:
		if b.rng.Float64() < b.p.NorFrac {
			b.add(logic.Nor, fanins...)
		} else {
			b.add(logic.Nand, fanins...)
		}
	}
}

// FromProfile generates the circuit described by p. The result is a valid
// mapped network: every gate is a 1–4-input library function, the DAG is
// acyclic, and every gate without fanout is a primary output.
func FromProfile(p Profile) *network.Network {
	b := &builder{
		n:   network.New(p.Name),
		rng: rand.New(rand.NewSource(p.Seed)),
		p:   p,
	}
	for i := 0; i < p.NumPI; i++ {
		b.pool = append(b.pool, b.n.AddInput(fmt.Sprintf("pi%d", i)))
	}
	for _, w := range p.ParityWidth {
		ins := make([]*network.Gate, w)
		for i := range ins {
			ins[i] = b.pick()
		}
		fanin := p.MaxFanin
		if fanin < 2 {
			fanin = 2
		}
		b.xorTree(ins, fanin)
	}
	for _, bits := range p.AdderBits {
		b.rippleAdder(bits)
	}
	if p.MultBits > 0 {
		b.multiplier(p.MultBits)
	}
	if p.PLATerms > 0 {
		b.pla(p.PLATerms, p.PLALits)
	}
	// Inject redundancies before the glue so the patterns embed in the
	// middle of the logic (their interiors stay fanout-free thanks to
	// shielding); glue then grows the circuit to the target around them.
	for i := 0; i < p.Redundant && b.gates < p.TargetGates; i++ {
		b.injectRedundancy()
	}
	for b.gates < p.TargetGates {
		b.glue()
	}
	// Mark every dangling signal as a primary output (so nothing is dead)
	// and assign fanout-proportional initial drive strengths, as a
	// timing-driven mapper would deliver (§6).
	b.n.Gates(func(g *network.Gate) {
		if g.NumFanouts() == 0 && !g.IsInput() {
			b.n.MarkOutput(g)
		}
	})
	techmap.SeedSizes(b.n)
	return b.n
}

// Benchmarks returns the Table 1 circuit names in table order.
func Benchmarks() []string {
	names := make([]string, len(tableOrder))
	copy(names, tableOrder)
	return names
}

// Generate builds the named Table 1 benchmark. Unknown names are an error;
// see Benchmarks for the available set.
func Generate(name string) (*network.Network, error) {
	p, ok := profiles[name]
	if !ok {
		known := Benchmarks()
		sort.Strings(known)
		return nil, fmt.Errorf("gen: unknown benchmark %q (known: %v)", name, known)
	}
	return FromProfile(p), nil
}

var tableOrder = []string{
	"alu2", "alu4", "c432", "c499", "c1355", "c1908", "c2670", "c3540",
	"c5315", "c6288", "c7552", "i10", "x3", "i8", "k2", "s5378",
	"s13207", "s15850", "s38417",
}

// profiles encode, per Table 1 circuit, a seeded generator matching the
// paper's row: column 2 gate counts, the circuit family's structural
// character, and a redundancy budget shaped like column 14.
var profiles = map[string]Profile{
	"alu2": {Name: "alu2", Seed: 1002, NumPI: 10, TargetGates: 516,
		AdderBits: []int{8, 8}, PLATerms: 8, PLALits: 6,
		XorFrac: 0.12, NorFrac: 0.35, InvFrac: 0.12, Locality: 0.7, MaxFanin: 3, Redundant: 7},
	"alu4": {Name: "alu4", Seed: 1004, NumPI: 14, TargetGates: 1004,
		AdderBits: []int{16, 16}, PLATerms: 12, PLALits: 8,
		XorFrac: 0.12, NorFrac: 0.35, InvFrac: 0.12, Locality: 0.7, MaxFanin: 3, Redundant: 14},
	"c432": {Name: "c432", Seed: 432, NumPI: 36, TargetGates: 291,
		ParityWidth: []int{9, 9}, PLATerms: 6, PLALits: 8,
		XorFrac: 0.10, NorFrac: 0.45, InvFrac: 0.15, Locality: 0.6, MaxFanin: 3, Redundant: 6},
	"c499": {Name: "c499", Seed: 499, NumPI: 41, TargetGates: 625,
		ParityWidth: []int{32, 32, 16, 16, 8, 8},
		XorFrac:     0.45, NorFrac: 0.30, InvFrac: 0.10, Locality: 0.5, MaxFanin: 3, Redundant: 2},
	"c1355": {Name: "c1355", Seed: 1355, NumPI: 41, TargetGates: 625,
		ParityWidth: []int{32, 32, 16, 16, 8, 8},
		XorFrac:     0.45, NorFrac: 0.30, InvFrac: 0.10, Locality: 0.5, MaxFanin: 2, Redundant: 2},
	"c1908": {Name: "c1908", Seed: 1908, NumPI: 33, TargetGates: 730,
		ParityWidth: []int{16, 16, 8}, AdderBits: []int{8},
		XorFrac: 0.20, NorFrac: 0.35, InvFrac: 0.12, Locality: 0.6, MaxFanin: 3, Redundant: 5},
	"c2670": {Name: "c2670", Seed: 2670, NumPI: 157, TargetGates: 911,
		AdderBits: []int{12}, PLATerms: 10, PLALits: 10,
		XorFrac: 0.08, NorFrac: 0.40, InvFrac: 0.15, Locality: 0.5, MaxFanin: 4, Redundant: 23},
	"c3540": {Name: "c3540", Seed: 3540, NumPI: 50, TargetGates: 1809,
		AdderBits: []int{16, 8}, PLATerms: 14, PLALits: 8,
		XorFrac: 0.10, NorFrac: 0.38, InvFrac: 0.13, Locality: 0.65, MaxFanin: 3, Redundant: 33},
	"c5315": {Name: "c5315", Seed: 5315, NumPI: 178, TargetGates: 2379,
		AdderBits: []int{16, 16}, PLATerms: 12, PLALits: 8,
		XorFrac: 0.10, NorFrac: 0.38, InvFrac: 0.13, Locality: 0.6, MaxFanin: 3, Redundant: 103},
	"c6288": {Name: "c6288", Seed: 6288, NumPI: 32, TargetGates: 5000,
		MultBits: 24,
		XorFrac:  0.30, NorFrac: 0.30, InvFrac: 0.10, Locality: 0.8, MaxFanin: 2, Redundant: 52},
	"c7552": {Name: "c7552", Seed: 7552, NumPI: 207, TargetGates: 2565,
		AdderBits: []int{32}, ParityWidth: []int{16, 16},
		XorFrac: 0.12, NorFrac: 0.38, InvFrac: 0.13, Locality: 0.6, MaxFanin: 3, Redundant: 26},
	"i10": {Name: "i10", Seed: 10, NumPI: 257, TargetGates: 3397,
		AdderBits: []int{16}, ParityWidth: []int{12},
		XorFrac: 0.10, NorFrac: 0.40, InvFrac: 0.14, Locality: 0.55, MaxFanin: 4, Redundant: 40},
	"x3": {Name: "x3", Seed: 3, NumPI: 135, TargetGates: 1010,
		PLATerms: 10, PLALits: 8,
		XorFrac: 0.08, NorFrac: 0.40, InvFrac: 0.14, Locality: 0.55, MaxFanin: 4, Redundant: 46},
	"i8": {Name: "i8", Seed: 8, NumPI: 133, TargetGates: 1229,
		PLATerms: 16, PLALits: 6,
		XorFrac: 0.06, NorFrac: 0.42, InvFrac: 0.15, Locality: 0.5, MaxFanin: 3, Redundant: 229},
	"k2": {Name: "k2", Seed: 2, NumPI: 45, TargetGates: 1484,
		PLATerms: 43, PLALits: 12,
		XorFrac: 0.05, NorFrac: 0.42, InvFrac: 0.14, Locality: 0.5, MaxFanin: 4, Redundant: 16},
	"s5378": {Name: "s5378", Seed: 5378, NumPI: 199, TargetGates: 1811,
		AdderBits: []int{8}, ParityWidth: []int{8},
		XorFrac: 0.08, NorFrac: 0.40, InvFrac: 0.15, Locality: 0.55, MaxFanin: 3, Redundant: 112},
	"s13207": {Name: "s13207", Seed: 13207, NumPI: 700, TargetGates: 2900,
		AdderBits: []int{16}, PLATerms: 18, PLALits: 8,
		XorFrac: 0.08, NorFrac: 0.40, InvFrac: 0.15, Locality: 0.5, MaxFanin: 4, Redundant: 90},
	"s15850": {Name: "s15850", Seed: 15850, NumPI: 611, TargetGates: 4640,
		AdderBits: []int{16, 16}, PLATerms: 16, PLALits: 10,
		XorFrac: 0.09, NorFrac: 0.40, InvFrac: 0.14, Locality: 0.55, MaxFanin: 4, Redundant: 366},
	"s38417": {Name: "s38417", Seed: 38417, NumPI: 1664, TargetGates: 10090,
		AdderBits: []int{16, 16}, ParityWidth: []int{16, 16}, PLATerms: 18, PLALits: 8,
		XorFrac: 0.08, NorFrac: 0.40, InvFrac: 0.15, Locality: 0.55, MaxFanin: 3, Redundant: 474},
}

// TableGateCount returns the paper's Table 1 gate count for a benchmark
// name (column 2), used by tests and EXPERIMENTS.md to compare scale.
func TableGateCount(name string) (int, bool) {
	counts := map[string]int{
		"alu2": 516, "alu4": 1004, "c432": 291, "c499": 625, "c1355": 625,
		"c1908": 730, "c2670": 911, "c3540": 1809, "c5315": 2379,
		"c6288": 5000, "c7552": 2565, "i10": 3397, "x3": 1010, "i8": 1229,
		"k2": 1484, "s5378": 1811, "s13207": 2900, "s15850": 4640,
		"s38417": 10090,
	}
	c, ok := counts[name]
	return c, ok
}
