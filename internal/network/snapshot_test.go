package network_test

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/blif"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netcmp"
	"repro/internal/network"
)

// chain builds a -> AND(a,b) -> INV -> PO with one spare input.
func snapTestNet(t *testing.T) (*network.Network, *network.Gate, *network.Gate) {
	t.Helper()
	n := network.New("snap")
	a := n.AddInput("a")
	b := n.AddInput("b")
	g1 := n.AddGate("g1", logic.And, a, b)
	g2 := n.AddGate("g2", logic.Inv, g1)
	n.MarkOutput(g2)
	g1.SizeIdx = 2
	g1.X, g1.Y, g1.Placed = 3, 4, true
	return n, g1, g2
}

func TestEpochAdvancesOnMutation(t *testing.T) {
	n, g1, g2 := snapTestNet(t)

	step := func(name string, mutate func()) {
		t.Helper()
		before := n.Epoch()
		mutate()
		if n.Epoch() <= before {
			t.Fatalf("%s did not advance the epoch (%d -> %d)", name, before, n.Epoch())
		}
	}
	step("AddInput", func() { n.AddInput("c") })
	step("SetSize", func() { n.SetSize(g1, 3) })
	step("SetGateType", func() { n.SetGateType(g1, logic.Nand) })
	step("Rename", func() { n.Rename(g1, "g1x") })
	step("Touch", func() { n.Touch(g2) })
	step("ReplaceFanin", func() { n.ReplaceFanin(g2, 0, n.FindGate("a")) })

	// No-op mutations leave the epoch alone: cached snapshots stay valid.
	before := n.Epoch()
	n.SetSize(g1, 3)
	n.MarkOutput(g2)
	if n.Epoch() != before {
		t.Fatalf("no-op mutations advanced the epoch (%d -> %d)", before, n.Epoch())
	}

	// RemoveGate advances it too (g1 lost its only fanout above).
	step("RemoveGate", func() { n.RemoveGate(n.FindGate("g1x")) })
}

func TestSnapshotCachedPerEpoch(t *testing.T) {
	n, g1, _ := snapTestNet(t)
	s1 := n.Snapshot()
	if s2 := n.Snapshot(); s2 != s1 {
		t.Fatal("Snapshot at an unchanged epoch must return the cached view")
	}
	if s1.Epoch() != n.Epoch() || s1.Stale(n) {
		t.Fatalf("fresh snapshot reported stale: epoch %d vs %d", s1.Epoch(), n.Epoch())
	}
	n.SetSize(g1, 1)
	if s1 == n.Snapshot() {
		t.Fatal("Snapshot after a mutation must capture a new view")
	}
	if !s1.Stale(n) {
		t.Fatal("old snapshot must report stale after a mutation")
	}
}

func TestSnapshotImmutableUnderWrites(t *testing.T) {
	n, g1, g2 := snapTestNet(t)
	s := n.Snapshot()
	var idx = -1
	for i := 0; i < s.NumGates(); i++ {
		if s.Gate(i).Name == "g1" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("g1 missing from snapshot")
	}
	want := s.Gate(idx)

	n.SetSize(g1, 0)
	n.SetGateType(g1, logic.Nand)
	n.Rename(g1, "renamed")
	n.ReplaceFanin(g2, 0, n.FindGate("a"))

	got := s.Gate(idx)
	if got.Name != want.Name || got.Type != logic.And || got.SizeIdx != 2 {
		t.Fatalf("pinned snapshot changed under writes: %+v", got)
	}
}

func TestSnapshotNetRoundTrip(t *testing.T) {
	n, _, _ := snapTestNet(t)
	m := n.Snapshot().Net()
	if err := netcmp.Structure(n, m); err != nil {
		t.Fatalf("materialized snapshot differs structurally: %v", err)
	}
	// Structure ignores sizes and placement; check those by name.
	n.Gates(func(g *network.Gate) {
		mg := m.FindGate(g.Name())
		if mg == nil {
			t.Fatalf("gate %s missing from materialization", g.Name())
		}
		if mg.SizeIdx != g.SizeIdx || mg.X != g.X || mg.Y != g.Y || mg.Placed != g.Placed {
			t.Fatalf("gate %s lost size/placement: %+v vs %+v", g.Name(), mg, g)
		}
	})
	// Determinism: two materializations are gate-for-gate identical.
	m2 := n.Snapshot().Net()
	if err := netcmp.Structure(m, m2); err != nil {
		t.Fatalf("materialization nondeterministic: %v", err)
	}
}

// TestSnapshotPinnedReaders is the one-writer/many-reader contract under
// the race detector: readers hold snapshots pinned at old epochs and
// read them freely while the writer keeps mutating the live network.
func TestSnapshotPinnedReaders(t *testing.T) {
	n, g1, _ := snapTestNet(t)
	const readers = 8
	views := make(chan *network.Snapshot, 64)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range views {
				sum := 0
				for i := 0; i < s.NumGates(); i++ {
					g := s.Gate(i)
					sum += g.SizeIdx + len(g.Fanins) + len(g.Name)
				}
				if sum == 0 {
					t.Error("empty snapshot view")
				}
			}
		}()
	}
	// Writer: mutate, snapshot, hand the pinned view to the readers.
	for i := 0; i < 500; i++ {
		n.SetSize(g1, i%4)
		n.SetGateType(g1, []logic.GateType{logic.And, logic.Nand, logic.Or, logic.Nor}[i%4])
		s := n.Snapshot()
		for r := 0; r < readers; r++ {
			views <- s
		}
	}
	close(views)
	wg.Wait()
}

// fullCapture is the reference Snapshot must equal: every live gate in
// TopoOrder order, captured from scratch, fanins as positions.
func fullCapture(n *network.Network) []network.SnapGate {
	order := n.TopoOrder()
	pos := make(map[*network.Gate]int32, len(order))
	out := make([]network.SnapGate, len(order))
	for i, g := range order {
		pos[g] = int32(i)
		var fans []int32
		for _, f := range g.Fanins() {
			fans = append(fans, pos[f])
		}
		out[i] = network.SnapGate{
			Name: g.Name(), Type: g.Type, PO: g.PO, SizeIdx: g.SizeIdx,
			X: g.X, Y: g.Y, Placed: g.Placed, Fanins: fans,
		}
	}
	return out
}

// checkCapture compares s with a full capture of n field by field.
func checkCapture(t *testing.T, step int, n *network.Network, s *network.Snapshot) {
	t.Helper()
	want := fullCapture(n)
	if s.NumGates() != len(want) {
		t.Fatalf("step %d: snapshot has %d gates, full capture %d", step, s.NumGates(), len(want))
	}
	for i, w := range want {
		got := s.Gate(i)
		if got.Name != w.Name || got.Type != w.Type || got.PO != w.PO || got.SizeIdx != w.SizeIdx ||
			got.X != w.X || got.Y != w.Y || got.Placed != w.Placed || !slices.Equal(got.Fanins, w.Fanins) {
			t.Fatalf("step %d, gate %d: snapshot %+v, full capture %+v", step, i, got, w)
		}
	}
}

// sharesFanins reports whether b reuses a's fanin arrays: the mark of a
// snapshot patched from a rather than recaptured.
func sharesFanins(a, b *network.Snapshot) bool {
	for i := 0; i < a.NumGates() && i < b.NumGates(); i++ {
		if fa, fb := a.Gate(i).Fanins, b.Gate(i).Fanins; len(fa) > 0 && len(fb) > 0 {
			return &fa[0] == &fb[0]
		}
	}
	return false
}

func snapBLIF(t *testing.T, s *network.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := blif.Write(&buf, s.Net()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func snapPropNet(seed int64) *network.Network {
	n := gen.FromProfile(gen.Profile{
		Name: "snapprop", Seed: seed, NumPI: 16, TargetGates: 300,
		XorFrac: 0.1, NorFrac: 0.4, InvFrac: 0.12, Locality: 0.6, MaxFanin: 3,
	})
	i := 0.0
	n.Gates(func(g *network.Gate) {
		g.X, g.Y, g.Placed = i, 2*i, true
		i++
	})
	return n
}

// mutateRandom applies one random event-layer mutation: mostly
// value-only ones, interleaved with structural edits that cannot close
// a cycle.
func mutateRandom(rng *rand.Rand, n *network.Network) {
	gates := n.GateSlice()
	g := gates[rng.Intn(len(gates))]
	switch rng.Intn(10) {
	case 0, 1:
		if !g.IsInput() {
			n.SetSize(g, rng.Intn(4))
		}
	case 2:
		if g.IsInput() {
			return
		}
		types := []logic.GateType{logic.And, logic.Or, logic.Xor, logic.Nand, logic.Nor, logic.Xnor}
		if g.NumFanins() == 1 {
			types = []logic.GateType{logic.Inv, logic.Buf}
		}
		n.SetGateType(g, types[rng.Intn(len(types))])
	case 3:
		n.Touch(g)
	case 4:
		n.MarkOutput(g)
	case 5:
		n.Rename(g, n.FreshName("ren"))
	case 6: // the PO move alone: g drives no sink
		if nw := gates[rng.Intn(len(gates))]; g.PO && g.NumFanouts() == 0 && nw != g {
			n.TransferFanouts(g, nw)
		}
	case 7: // rewire to a primary input, which has no fanin cone
		if g.NumFanins() > 0 {
			ins := n.Inputs()
			n.ReplaceFanin(g, rng.Intn(g.NumFanins()), ins[rng.Intn(len(ins))])
		}
	case 8:
		n.AddGate(n.FreshName("add"), logic.And, g, gates[rng.Intn(len(gates))])
	case 9:
		for _, d := range gates {
			if !d.IsInput() && !d.PO && d.NumFanouts() == 0 {
				n.RemoveGate(d)
				return
			}
		}
	}
}

// TestSnapshotIncrementalMatchesFullCapture drives random mutation
// sequences and checks every capture against a from-scratch one, then
// checks that every pinned snapshot still materializes to its BLIF.
func TestSnapshotIncrementalMatchesFullCapture(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		n := snapPropNet(seed)
		rng := rand.New(rand.NewSource(seed))
		prev := n.Snapshot()
		checkCapture(t, 0, n, prev)
		pinned := []*network.Snapshot{prev}
		blifs := [][]byte{snapBLIF(t, prev)}
		patched, recaptured := 0, 0
		for step := 1; step <= 300; step++ {
			for k := rng.Intn(3); k >= 0; k-- {
				mutateRandom(rng, n)
			}
			s := n.Snapshot()
			if s == prev {
				continue // no-op mutations only
			}
			checkCapture(t, step, n, s)
			if sharesFanins(prev, s) {
				patched++
			} else {
				recaptured++
			}
			pinned = append(pinned, s)
			blifs = append(blifs, snapBLIF(t, s))
			prev = s
		}
		for i, s := range pinned {
			if !bytes.Equal(snapBLIF(t, s), blifs[i]) {
				t.Fatalf("seed %d: pinned snapshot %d (epoch %d) changed under later writes", seed, i, s.Epoch())
			}
		}
		if patched == 0 || recaptured == 0 {
			t.Fatalf("seed %d: %d patched and %d recaptured snapshots, want both paths", seed, patched, recaptured)
		}
	}
}

func TestSnapshotDirtyFallback(t *testing.T) {
	n := snapPropNet(1)
	var logicGates []*network.Gate
	n.Gates(func(g *network.Gate) {
		if !g.IsInput() {
			logicGates = append(logicGates, g)
		}
	})

	// Never snapshotted: value-only mutations record nothing.
	for _, g := range logicGates {
		n.SetSize(g, 1)
	}
	if d := network.DirtyLen(n); d != 0 {
		t.Fatalf("never-snapshotted network recorded %d dirty gates", d)
	}

	bound := n.NumGates() / 8
	for _, k := range []int{1, bound, bound + 1} {
		s := n.Snapshot()
		for _, g := range logicGates[:k] {
			n.SetSize(g, g.SizeIdx^1)
		}
		next := n.Snapshot()
		checkCapture(t, k, n, next)
		if want := k <= bound; sharesFanins(s, next) != want {
			t.Fatalf("%d value-only changes over %d gates: patched = %v, want %v", k, n.NumGates(), !want, want)
		}
	}

	// A direct write announced through Invalidate recaptures.
	s := n.Snapshot()
	logicGates[0].X += 5
	n.Invalidate()
	next := n.Snapshot()
	checkCapture(t, -1, n, next)
	if next == s || sharesFanins(s, next) {
		t.Fatal("Invalidate must force a full recapture")
	}
}
