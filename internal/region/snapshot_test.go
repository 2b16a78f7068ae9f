package region

import (
	"testing"

	"repro/internal/library"
	"repro/internal/network"
	"repro/internal/sta"
)

// TestSnapshotMatchesExtract: a region's rollback image
// (Extracted.Snapshot, reusing the extraction's order and membership set)
// and the extracted subnetwork itself must materialize gate-for-gate
// identical nets.
func TestSnapshotMatchesExtract(t *testing.T) {
	n := buildPlaced(t, 4, 350)
	tm := sta.Analyze(n, lib(), 0)
	p := Build(n, tm, Options{Window: 0.15, MaxRegions: 4})
	if len(p.Regions) == 0 {
		t.Fatal("no regions")
	}
	for ri, r := range p.Regions {
		e := Extract(n, tm, r)
		fromExtracted := e.Snapshot().Net("snap")
		if err := fromExtracted.Validate(); err != nil {
			t.Fatalf("region %d: snapshot net invalid: %v", ri, err)
		}
		if signature(fromExtracted) != signature(e.Net) {
			t.Fatalf("region %d: snapshot net differs from the extracted subnetwork:\n%s\n---\n%s",
				ri, signature(fromExtracted), signature(e.Net))
		}
	}
}

// TestSnapshotRevertRestoresNetwork drives a multi-region revert:
// capture snapshots, stitch in subnetworks an optimizer round has
// mutated, then re-stitch the materialized snapshots over the installed
// gates. The network must come back structurally
// identical — names included, which pins Stitch's guarantee that
// replacements take the original interior names.
func TestSnapshotRevertRestoresNetwork(t *testing.T) {
	n := buildPlaced(t, 6, 350)
	orig, _ := n.Clone()
	tm := sta.Analyze(n, lib(), 0)
	p := Build(n, tm, Options{Window: 0.15, MaxRegions: 4})
	if len(p.Regions) == 0 {
		t.Fatal("no regions")
	}

	// Snapshots must all be captured before any stitch deletes an
	// interior.
	var exts []*Extracted
	var snaps []*Snapshot
	for _, r := range p.Regions {
		e := Extract(n, tm, r)
		exts = append(exts, e)
		snaps = append(snaps, e.Snapshot())
	}

	installed := make([][]*network.Gate, len(exts))
	for i, e := range exts {
		// Stand-in for an optimizer round: resize every interior gate.
		e.Net.Gates(func(g *network.Gate) {
			if !g.IsInput() {
				e.Net.SetSize(g, (g.SizeIdx+1)%library.NumSizes)
			}
		})
		installed[i] = Stitch(n, e.Net, e.Region.Interior)
	}
	if signature(n) == signature(orig) {
		t.Fatal("mutated stitch left the network unchanged; revert test proves nothing")
	}

	for i := range exts {
		Stitch(n, snaps[i].Net(n.Name()), installed[i])
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("reverted network invalid: %v", err)
	}
	if err := n.CheckAcyclic(); err != nil {
		t.Fatalf("reverted network: %v", err)
	}
	if signature(n) != signature(orig) {
		t.Fatal("revert through Snapshot.Net did not restore the original network")
	}
}
