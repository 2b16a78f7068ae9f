package main

import (
	"math/rand"

	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/rapids"
)

// serviceCircuits is the service-mixed circuit mix: the Table 1
// stand-ins small enough that placement, queueing, the journal and HTTP
// are a visible share of a job, plus s5378 as the heavy tail.
var serviceCircuits = []string{"alu2", "alu4", "c432", "c499", "c1355", "c1908", "c2670", "c3540", "i8", "k2", "x3", "s5378"}

// hitWindow bounds how far back a resubmission reaches into its
// client's cold specs. Two clients with at most this many cold specs
// each since the original stay far inside rapidsd's 64-entry LRU, so
// every resubmission is a cache hit.
const hitWindow = 12

// jobSpec is one service-mixed submission.
type jobSpec struct {
	Circuit   string
	PlaceSeed int64
	// Hit marks a resubmission of one of the client's earlier specs.
	Hit bool
}

// jobGen yields one client's submissions in blocks: every circuit of
// the mix once, cold, in a seeded order, plus one resubmission per three
// cold jobs at seeded positions (never first). A block's cold jobs share
// one placement seed, 2(block+1)+client: so no cold spec repeats within
// or across clients or matches the warm-up job (seed 1), and every seed
// runs the same specs, only in another order with other resubmissions.
// Drawing placement seeds instead moved latency_p50_ms by ~10% from seed
// to seed, as the optimizer's work swings with the placement.
type jobGen struct {
	rng      *rand.Rand
	client   int
	circuits []string
	block    int
	layout   []bool // pending block positions: true = resubmission
	order    []string
	history  []jobSpec
}

func newJobGen(seed int64, client int, circuits []string) *jobGen {
	return &jobGen{
		rng:      rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
		client:   client,
		circuits: circuits,
	}
}

// blockLen is the number of submissions per block.
func (g *jobGen) blockLen() int { return len(g.circuits) + (len(g.circuits)+2)/3 }

func (g *jobGen) next() jobSpec {
	if len(g.layout) == 0 {
		g.block++
		g.layout = make([]bool, g.blockLen())
		hits := g.blockLen() - len(g.circuits)
		for _, p := range g.rng.Perm(len(g.layout) - 1)[:hits] {
			g.layout[p+1] = true
		}
		g.order = make([]string, len(g.circuits))
		for i, p := range g.rng.Perm(len(g.circuits)) {
			g.order[i] = g.circuits[p]
		}
	}
	hit := g.layout[0]
	g.layout = g.layout[1:]
	if hit {
		recent := g.history[max(0, len(g.history)-hitWindow):]
		s := recent[g.rng.Intn(len(recent))]
		s.Hit = true
		return s
	}
	s := jobSpec{Circuit: g.order[0], PlaceSeed: int64(2*g.block + g.client)}
	g.order = g.order[1:]
	g.history = append(g.history, s)
	return s
}

// editTable lists the edit targets of a circuit that no optimizer move
// removes: logic gates other than inverters, which rewiring may add or
// delete, and the primary outputs among them.
type editTable struct {
	gates   []string
	outputs []string
	ok      map[string]bool
}

func newEditTable(c *rapids.Circuit) *editTable {
	t := &editTable{ok: map[string]bool{}}
	c.Network().Gates(func(g *network.Gate) {
		if g.IsInput() || g.Type == logic.Inv {
			return
		}
		t.gates = append(t.gates, g.Name())
		t.ok[g.Name()] = true
		if g.PO {
			t.outputs = append(t.outputs, g.Name())
		}
	})
	return t
}

// editBatch is one edit request: a single edit, plus a targeted
// re-optimization pass when Reopt is set.
type editBatch struct {
	Edit  rapids.Edit
	Reopt bool
}

// editGen yields one eco-session client's edit stream: 80% resizes to
// a random size, half of them on a gate of the worst path the session
// last reported, and 20% required-time pins on a primary output within
// ±5% of the clock. Every reoptEvery-th batch also re-optimizes.
type editGen struct {
	rng        *rand.Rand
	tab        *editTable
	clock      float64
	reoptEvery int
	n          int
}

func newEditGen(seed int64, client int, tab *editTable, clock float64, reoptEvery int) *editGen {
	return &editGen{
		rng: rand.New(rand.NewSource(seed*7_000_003 + int64(client))),
		tab: tab, clock: clock, reoptEvery: reoptEvery,
	}
}

func (g *editGen) next(crit []rapids.PathStage) editBatch {
	g.n++
	b := editBatch{Reopt: g.n%g.reoptEvery == 0}
	if g.rng.Intn(5) == 0 && len(g.tab.outputs) > 0 {
		b.Edit = rapids.Edit{
			Kind:   rapids.EditPinRequired,
			Gate:   g.tab.outputs[g.rng.Intn(len(g.tab.outputs))],
			TimeNS: g.clock * (0.95 + 0.1*g.rng.Float64()),
		}
		return b
	}
	gate := ""
	if g.rng.Intn(2) == 0 {
		var onPath []string
		for _, st := range crit {
			if g.tab.ok[st.Gate] {
				onPath = append(onPath, st.Gate)
			}
		}
		if len(onPath) > 0 {
			gate = onPath[g.rng.Intn(len(onPath))]
		}
	}
	if gate == "" {
		gate = g.tab.gates[g.rng.Intn(len(g.tab.gates))]
	}
	b.Edit = rapids.Edit{Kind: rapids.EditResize, Gate: gate, Size: g.rng.Intn(library.NumSizes)}
	return b
}
