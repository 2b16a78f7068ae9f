package place

// Placement goldens: a sha256 digest of every gate's name and exact
// coordinates plus the annealer's Result, for every Table 1 circuit at
// seeds 1 and 2 and the facade's 30 moves per cell. Placement is the
// fixed input of every optimizer run, so any change to the annealer's
// accept/reject sequence shows up here before it reshapes Table 1.
// Update the digests only for an intentional placer change, and say so in
// the commit.
//
// Result.Cols is left out of the digest: it describes the constructive
// fill, not an annealing outcome, and its own unit test pins it.
//
// Like internal/harness's goldens these are pinned to amd64: the
// annealer compares float costs, so an architecture that fuses
// multiply-adds differently may take another, equally valid, trajectory.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/network"
)

// goldenPlacements holds the (seed 1, seed 2) digests per circuit.
var goldenPlacements = map[string][2]string{
	"alu2": {
		"51e2a2105d40e7cc18411014343eab70f3196401d04dd84a7d0eb6c6eb8ea99b",
		"81747ab9e57f9d8e78e319e95b9189688fced460b012f1c1d5156caf36a15846",
	},
	"alu4": {
		"1128ca41dddc81a3c20b5a9745b5c278484bd806f357c8617c9119b868a54a8d",
		"b565bf09129dcb93db473b3db03919e9a5140494c8e79c3bff33ed751d917367",
	},
	"c432": {
		"654e497de1afb271f9461b1d186db2142600c5e5fa972dc5d2257f10411dc8d7",
		"90d1bf8eebc1ba44716dd910e5d42009cccd0f6f17e9bbb4aa4c277d3f93e22d",
	},
	"c499": {
		"28fb734c1e79e1198519cb9af2d3704dad908a713bf4f84622be5c8345ef8ef6",
		"2d982ac73f05e77d37df74432bbf4186e9b0ead5a9559f882dd4c5dac2c326a9",
	},
	"c1355": {
		"d95965c5bed00f5bcec5c0b2ff651cbb2c425cdcfe3cbdbb1bd1c42326c6bf49",
		"2aa6442f45e0c3926736ac67346f1fa628ca4f0c592de466cc51f5a3a0961135",
	},
	"c1908": {
		"43b755326e068d1d38c50f527978b353cdded2bda08d9cecbfa40d96a2de82e1",
		"0462f4b8772c7a8670d4c24db5bbce547defb675dfd8343eb252a4fb5c4022f4",
	},
	"c2670": {
		"140b4c615aad93b31d29aed70eac9fb895cc15b25b5de7a8da267efd0c5bff7b",
		"98feb753dbf6ef0f73224f2c157063d200420d56b3f5c56f3f7024f6e3ffa419",
	},
	"c3540": {
		"faed25909ac98ac80627fd35f6d66d8f98c14cd19bcc0f7fc1543a55012753cc",
		"9984d613e8df8cfaa216e82f09997aa4da0712396fdf75fb727ec661acef6146",
	},
	"c5315": {
		"0ac1509b4efca481a03ee044d56e4b6df695861ed4ba6a28ac302370833e6cf2",
		"ebf5576be718aee87fd42ce259ddda323bdfd71a142eecfc7fb1b7a5dbf4d020",
	},
	"c6288": {
		"c1ab66822cc58e82a2e0b744d3c5daf1176a80ba7e5beb68ea115a4d6f0fe2f4",
		"ee749f2d858efcedd32699711eda34aa8336aa240f1a862ad98a7f7a90547293",
	},
	"c7552": {
		"9d57ca8bf4a55e63b3fe6a37a2db54f9646136c71c23218ae7141eee119aa8b5",
		"4ddde3d0b4eaa444bee13ba70ac3e576fe443bab36d8d2abee9a414f8d8188a2",
	},
	"i10": {
		"5609c1660d959e3036dcb5f62f0c8b03f703d27c756e8d4ebf985cb55368cdcf",
		"d9e8e7aadceb774c7a982dd4322e387eee35e77da17c913eedc811a52a91561f",
	},
	"x3": {
		"19bded6ef97d546ad8b1ae38f7671bd1d324edfd79a92762b69e8d20d4efac85",
		"9d766e2feb03b76c44c5a9bab8254bf3b7c22c5682c3ab4f4de81afb8c256618",
	},
	"i8": {
		"1301340d0d1e5072ac70b2c69a6b4d4b8d4063b9204e605cbaedbbc0dd69cf38",
		"30c79b94ec3e6cfad71685489489c8189225f527394a4592acb838ee150859eb",
	},
	"k2": {
		"d646782ba64488ab1b61fb8a5540124d7d72516bbfa9fb3ec80f2283a32ec5d3",
		"b236f1780227e670b82901e5c4786f0ba7cd86ac491e6c2069fbd9c9726da065",
	},
	"s5378": {
		"7f880b94da4e2bd132815dac91d3c2c6016665f2e1069cd81b5fde5fbf7476f7",
		"408367d1ddb1f25523add3d683d552f8d98ce306f8bdbb27958019514db753d0",
	},
	"s13207": {
		"32b14e07a9990dfa8dc2233db72d6906b4f7cc146d4ed081dce6ed11e99ddcb1",
		"8cc1bce3f284db67b21407aca6b4b6a05d72546a0d7274c0a7a408a536e9514d",
	},
	"s15850": {
		"ad86f680e838174e58b5fa7cd55cd9574d5d38a01ad6f6de96ca8be2b2e374bb",
		"be8559f1c28ed4a31007a64100042150d2e5df5f8427f882fee1eaa2f6a55d40",
	},
	"s38417": {
		"a82401d7dbf4614852772b7c1cf51553138a98ea4f34aa717beab574555ff9c8",
		"a40f66319d048558e61a3f52f9f39abe3f9f698bf8c2fb6dcf8d21ad13af617d",
	},
}

// placementDigest hashes every gate's name, X and Y (as float bits) in
// creation order, then every Result field but Cols.
func placementDigest(n *network.Network, res Result) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	n.Gates(func(g *network.Gate) {
		h.Write([]byte(g.Name()))
		h.Write([]byte{0})
		word(math.Float64bits(g.X))
		word(math.Float64bits(g.Y))
	})
	word(uint64(res.Rows))
	for _, f := range []float64{res.DieWidth, res.DieHeight, res.InitialHPWL, res.FinalHPWL} {
		word(math.Float64bits(f))
	}
	word(uint64(res.MovesTried))
	word(uint64(res.MovesTaken))
	return hex.EncodeToString(h.Sum(nil))
}

func TestPlacementGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("placement goldens are pinned to amd64 (running on %s)", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range gen.Benchmarks() {
		n, err := gen.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		var got [2]string
		for s := range got {
			res := Place(n, lib(), Options{Seed: int64(s + 1), MovesPerCell: 30})
			got[s] = placementDigest(n, res)
		}
		if want := goldenPlacements[name]; got != want {
			t.Errorf("%s: placement digests (seed 1, seed 2)\n got %q\nwant %q", name, got, want)
		}
	}
}
