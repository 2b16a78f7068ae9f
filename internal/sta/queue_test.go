package sta

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/network"
)

// oracleQueue is the container/heap level queue the typed levelQueue
// replaced, kept as the reference: it re-reads every gate's level
// through the timer on each compare instead of caching it in a key.
type oracleQueue struct {
	h    oracleHeap
	qset gateSet
}

type oracleHeap struct {
	gates []*network.Gate
	it    *Incremental
	desc  bool
}

func (q *oracleQueue) push(g *network.Gate) {
	if q.qset.has(g) {
		return
	}
	q.qset.add(g)
	heap.Push(&q.h, g)
}

func (q *oracleQueue) pop() *network.Gate {
	g := heap.Pop(&q.h).(*network.Gate)
	q.qset.remove(g)
	return g
}

func (h oracleHeap) Len() int { return len(h.gates) }
func (h oracleHeap) Less(i, j int) bool {
	li, lj := h.it.levelOf(h.gates[i]), h.it.levelOf(h.gates[j])
	if li != lj {
		if h.desc {
			return li > lj
		}
		return li < lj
	}
	return h.gates[i].ID() < h.gates[j].ID()
}
func (h oracleHeap) Swap(i, j int) { h.gates[i], h.gates[j] = h.gates[j], h.gates[i] }
func (h *oracleHeap) Push(x interface{}) {
	h.gates = append(h.gates, x.(*network.Gate))
}
func (h *oracleHeap) Pop() interface{} {
	old := h.gates
	g := old[len(old)-1]
	h.gates = old[:len(old)-1]
	return g
}

// TestLevelQueueMatchesOracle drives the typed queue and the oracle
// through the same random push/pop interleavings, ascending and
// descending, and requires identical pop sequences. As in the forward
// sweep, a popped gate may get a new level before it is pushed again;
// some gates have IDs past the level array (level 0, like gates created
// since the last repair), and narrow level ranges force ID tie-breaks.
func TestLevelQueueMatchesOracle(t *testing.T) {
	n := network.New("q")
	var gates []*network.Gate
	for i := 0; i < 400; i++ {
		gates = append(gates, n.AddInput(fmt.Sprintf("g%d", i)))
	}
	for _, desc := range []bool{false, true} {
		for _, maxLevel := range []int{3, 40, 1 << 20} {
			t.Run(fmt.Sprintf("desc=%v/levels=%d", desc, maxLevel), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(maxLevel)))
				it := &Incremental{levels: make([]int32, 350)}
				for i := range it.levels {
					it.levels[i] = int32(rng.Intn(maxLevel))
				}
				var q levelQueue
				q.init(it, desc)
				o := oracleQueue{h: oracleHeap{it: it, desc: desc}}
				pops := 0
				for round := 0; round < 20; round++ {
					q.reset()
					o.h.gates = o.h.gates[:0]
					o.qset.reset()
					for step := 0; step < 2000; step++ {
						if q.Len() != o.h.Len() {
							t.Fatalf("round %d step %d: lengths %d vs oracle %d", round, step, q.Len(), o.h.Len())
						}
						if q.Len() == 0 || rng.Intn(5) < 3 {
							g := gates[rng.Intn(len(gates))]
							q.push(g)
							o.push(g)
							continue
						}
						got, want := q.pop(), o.pop()
						pops++
						if got != want {
							t.Fatalf("round %d step %d: popped %v, oracle popped %v", round, step, got, want)
						}
						if rng.Intn(2) == 0 {
							it.setLevel(got, int32(rng.Intn(maxLevel)))
						}
						if rng.Intn(3) == 0 {
							q.push(got)
							o.push(got)
						}
					}
					for q.Len() > 0 {
						if got, want := q.pop(), o.pop(); got != want {
							t.Fatalf("round %d drain: popped %v, oracle popped %v", round, got, want)
						}
						pops++
					}
					if o.h.Len() != 0 {
						t.Fatalf("round %d: oracle still holds %d gates", round, o.h.Len())
					}
				}
				if pops < 10000 {
					t.Fatalf("only %d pops compared", pops)
				}
			})
		}
	}
}
