package network

// GateQueue is a binary min-heap of gates under caller-supplied uint64
// keys: typed, so a push or pop costs no interface dispatch, no boxing
// and no per-compare callback, and allocation-free once its backing
// array has grown. Keys must be unique among the queued gates; then the
// pop sequence depends only on which gates are queued, never on the
// order they were pushed in. TopoOrder and TopoOrderAmong key on the
// dense gate ID.
type GateQueue struct {
	e []queueEntry
}

type queueEntry struct {
	key uint64
	g   *Gate
}

// Len returns the number of queued gates.
func (q *GateQueue) Len() int { return len(q.e) }

// Push queues g under key.
func (q *GateQueue) Push(key uint64, g *Gate) {
	q.e = append(q.e, queueEntry{})
	i := len(q.e) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q.e[p].key <= key {
			break
		}
		q.e[i] = q.e[p]
		i = p
	}
	q.e[i] = queueEntry{key, g}
}

// Pop removes and returns the gate with the smallest key. The queue must
// not be empty.
func (q *GateQueue) Pop() *Gate {
	top := q.e[0].g
	last := q.e[len(q.e)-1]
	q.e = q.e[:len(q.e)-1]
	n := len(q.e)
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.e[c+1].key < q.e[c].key {
			c++
		}
		if last.key <= q.e[c].key {
			break
		}
		q.e[i] = q.e[c]
		i = c
	}
	q.e[i] = last
	return top
}
