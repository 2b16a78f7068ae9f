// Stitched multi-block generation: circuits one to two orders of
// magnitude beyond the Table 1 stand-ins, for stressing the windowed
// optimizer at new-scenario scale. A stitched
// circuit instantiates several profile blocks into one network — each
// block namespaced by a "b<i>_" prefix — and cross-wires them by seeding
// part of every later block's input pool with signals exported from
// earlier blocks, which produces the long cross-block paths and shared
// fanout that make partitioning non-trivial.

package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/network"
)

// exportsPerBlock bounds how many tap points each block contributes to
// the cross-wiring pool.
const exportsPerBlock = 64

// Stitched builds one network out of the given profile blocks. The first
// block gets only fresh primary inputs; every later block draws roughly
// half of its input pool from signals exported by earlier blocks (the
// remaining half stays fresh primary inputs). Gate and input names are
// prefixed "b<i>_", so any profiles — including several instances of the
// same one — can be combined. The result has the same guarantees as
// FromProfile: a valid mapped netlist, acyclic, every dangling signal a
// primary output, sizes seeded fanout-proportionally.
func Stitched(name string, seed int64, blocks []Profile) *network.Network {
	n := network.New(name)
	wiring := rand.New(rand.NewSource(seed))
	var exports []*network.Gate
	for i, p := range blocks {
		b := &builder{
			n:      n,
			rng:    rand.New(rand.NewSource(seed + 1000003*int64(i) + p.Seed)),
			p:      p,
			prefix: fmt.Sprintf("b%d_", i),
		}
		fresh := p.NumPI
		if len(exports) > 0 {
			fresh = (p.NumPI + 1) / 2
		}
		for j := 0; j < p.NumPI; j++ {
			if j < fresh {
				b.pool = append(b.pool, n.AddInput(fmt.Sprintf("b%d_pi%d", i, j)))
			} else {
				b.pool = append(b.pool, exports[wiring.Intn(len(exports))])
			}
		}
		b.synthesize()
		k := exportsPerBlock
		if k > len(b.pool) {
			k = len(b.pool)
		}
		exports = append(exports, b.pool[len(b.pool)-k:]...)
	}
	return finalize(n)
}

// Large builds a stitched stress circuit of roughly targetGates logic
// gates (control-style blocks of ~5k gates each with embedded adders,
// parity trees, and PLA planes, cross-wired). Intended for the 50k–100k
// range the Table 1 circuits never reach.
func Large(targetGates int, seed int64) *network.Network {
	const perBlock = 5000
	nblocks := (targetGates + perBlock - 1) / perBlock
	if nblocks < 1 {
		nblocks = 1
	}
	blocks := make([]Profile, nblocks)
	for i := range blocks {
		p := Profile{
			Name:  fmt.Sprintf("blk%d", i),
			Seed:  seed + int64(i),
			NumPI: 160, TargetGates: perBlock,
			XorFrac: 0.08, NorFrac: 0.40, InvFrac: 0.14,
			Locality: 0.55, MaxFanin: 3, Redundant: 25,
		}
		if i == nblocks-1 && targetGates%perBlock != 0 {
			p.TargetGates = targetGates % perBlock
		}
		// Vary the structured content so the blocks are not clones.
		switch i % 3 {
		case 0:
			p.AdderBits = []int{16}
			p.ParityWidth = []int{12}
		case 1:
			p.PLATerms = 10
			p.PLALits = 8
		default:
			p.AdderBits = []int{8, 8}
			p.XorFrac = 0.15
		}
		blocks[i] = p
	}
	return Stitched(fmt.Sprintf("large%dk", (targetGates+500)/1000), seed, blocks)
}
