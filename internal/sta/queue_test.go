package sta

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/network"
)

// oracleQueue is a container/heap level queue kept as the reference: it
// re-reads every gate's level through the timer on each compare instead
// of bucketing gates by the level they were pushed at.
type oracleQueue struct {
	h    oracleHeap
	qset stampSet
}

type oracleHeap struct {
	gates []*network.Gate
	it    *Incremental
	desc  bool
}

func (q *oracleQueue) push(g *network.Gate) {
	if !q.qset.add(g) {
		return
	}
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

// queueEvents counts the pushes that exercise the bucket queue's edge
// cases, classified against its state just before the push.
type queueEvents struct {
	behind   int // ahead of the cursor in pop order: the cursor moves back
	partial  int // into a sorted, part-drained bucket: an ordered insert
	refilled int // into a bucket a pop emptied earlier in the same sweep
}

// classify records which edge cases pushing g would exercise. emptied
// marks the levels whose bucket a pop emptied since the last reset.
func (e *queueEvents) classify(q *levelQueue, g *network.Gate, emptied map[int]bool) {
	if q.qset.has(g) {
		return
	}
	lv := int(q.it.levelOf(g))
	if q.n > 0 && (lv < q.cur && !q.desc || lv > q.cur && q.desc) {
		e.behind++
	}
	if lv < len(q.buckets) && q.buckets[lv].sorted {
		e.partial++
	}
	if emptied[lv] {
		e.refilled++
	}
}

// TestLevelQueueMatchesOracle drives the bucket queue and the oracle
// through the same random push/pop interleavings, ascending and
// descending, and requires identical pop sequences. As in the forward
// sweep, a popped gate may get a new level before it is pushed again;
// some gates have IDs past the level array (level 0, like gates created
// since the last repair), narrow level ranges force ID tie-breaks, and
// the widest range leaves most buckets empty. Each direction must push
// behind the cursor, into part-drained buckets, and into buckets that
// emptied and refill within one sweep.
func TestLevelQueueMatchesOracle(t *testing.T) {
	n := network.New("q")
	var gates []*network.Gate
	for i := 0; i < 400; i++ {
		gates = append(gates, n.AddInput(fmt.Sprintf("g%d", i)))
	}
	for _, desc := range []bool{false, true} {
		var ev queueEvents
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
					emptied := map[int]bool{}
					for step := 0; step < 2000; step++ {
						if q.Len() != o.h.Len() {
							t.Fatalf("round %d step %d: lengths %d vs oracle %d", round, step, q.Len(), o.h.Len())
						}
						if q.Len() == 0 || rng.Intn(5) < 3 {
							g := gates[rng.Intn(len(gates))]
							ev.classify(&q, g, emptied)
							q.push(g)
							o.push(g)
							continue
						}
						got, want := q.pop(), o.pop()
						pops++
						if got != want {
							t.Fatalf("round %d step %d: popped %v, oracle popped %v", round, step, got, want)
						}
						if lv := int(it.levelOf(got)); len(q.buckets[lv].gates) == 0 {
							emptied[lv] = true
						}
						if rng.Intn(2) == 0 {
							it.setLevel(got, int32(rng.Intn(maxLevel)))
						}
						if rng.Intn(3) == 0 {
							ev.classify(&q, got, emptied)
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
		if ev.behind == 0 || ev.partial == 0 || ev.refilled == 0 {
			t.Fatalf("desc=%v: edge cases not all exercised: %+v", desc, ev)
		}
		t.Logf("desc=%v: %+v", desc, ev)
	}
}
