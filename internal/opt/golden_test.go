package opt

// Pins what the optimizer produces, not how much work it took: a hash of
// the final network (structure, sizes, placement) and of the Result with
// the work counters (Evals, Extractor, Timer) zeroed, per circuit and
// configuration. A scoring or apply-loop change that claims "same
// networks, less work" must leave every row unchanged.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/network"
	"repro/internal/place"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/supergate"
)

var printGolden = flag.Bool("print-golden", false, "print TestOptimizeNetworkGolden rows instead of checking them")

// networkHash digests the final network: every gate's name, function,
// size, PO flag, placement, and fanin list, in gate-ID order.
func networkHash(n *network.Network) string {
	h := sha256.New()
	n.Gates(func(g *network.Gate) {
		fmt.Fprintf(h, "%s:%v:s%d:po%v:%v,%v,%v:[", g.Name(), g.Type, g.SizeIdx, g.PO, g.X, g.Y, g.Placed)
		for _, f := range g.Fanins() {
			fmt.Fprintf(h, "%s,", f.Name())
		}
		fmt.Fprint(h, "]\n")
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// resultJSON renders r without its work counters.
func resultJSON(t *testing.T, r Result) string {
	t.Helper()
	r.Evals = EvalStats{}
	r.Extractor = supergate.CacheStats{}
	r.Timer = sta.IncStats{}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func shortHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])[:16]
}

// goldenConfig is one optimizer configuration of the golden corpus; a
// regions value above 1 selects the rounds loop.
type goldenConfig struct {
	name    string
	strat   Strategy
	regions int
	window  float64
}

// goldenConfigs are the optimizer configurations of the golden corpus:
// the facade default, regioned with a criticality window, and sizing only.
var goldenConfigs = []goldenConfig{
	{"default", GsgGS, 0, 0},
	{"regions4-w0.005", GsgGS, 4, 0.005},
	{"GS", GS, 0, 0},
}

// goldenPlacement generates a Table 1 circuit, places it at seed and
// seeds its sizes for load, as every golden row starts.
func goldenPlacement(t *testing.T, name string, seed int64) *network.Network {
	t.Helper()
	n, err := gen.Generate(name)
	if err != nil {
		t.Fatal(err)
	}
	place.Place(n, lib(), place.Options{Seed: seed, MovesPerCell: 30})
	sizing.SeedForLoad(n, lib(), 0)
	return n
}

// optimizeGolden runs cfg on n: the rounds loop for a regioned config,
// one Optimize otherwise.
func optimizeGolden(n *network.Network, cfg goldenConfig) Result {
	o := Options{Window: cfg.window}
	if cfg.regions > 1 {
		return OptimizeRounds(context.Background(), n, lib(), cfg.strat, o)
	}
	return Optimize(context.Background(), n, lib(), cfg.strat, o)
}

// goldenRows maps circuit/placement seed/config to the final-network
// hash and the counter-free Result JSON hash, for every Table 1 circuit
// at placement seeds 1 and 2. Printed on amd64 with -print-golden.
var goldenRows = map[string][2]string{
	"alu2/seed1/default":           {"16e169933141107b", "c38591d4dc32f666"},
	"alu2/seed1/regions4-w0.005":   {"e15bf1a7106e0d85", "c292656b9a16de24"},
	"alu2/seed1/GS":                {"fb16aec40999a18f", "12b3894af7b6e27c"},
	"alu2/seed2/default":           {"8a34e75e66f53ae7", "1793eed025fb08a2"},
	"alu2/seed2/regions4-w0.005":   {"0495595278239367", "e1e5767af15094c5"},
	"alu2/seed2/GS":                {"e4746d13ea423de7", "21c262b078e65acb"},
	"alu4/seed1/default":           {"5895a7ea135a2406", "3a349dfc3f4094b0"},
	"alu4/seed1/regions4-w0.005":   {"4f856673be155bab", "b9bd0106a4ff300b"},
	"alu4/seed1/GS":                {"a16ae9a0d6d44c85", "d5131578fa026bd6"},
	"alu4/seed2/default":           {"5aefc32de690eefb", "240507255a0ff863"},
	"alu4/seed2/regions4-w0.005":   {"77129963ff5a0958", "9a49e7600af07308"},
	"alu4/seed2/GS":                {"220517c3735d04eb", "75daf6cdc6b7c65d"},
	"c432/seed1/default":           {"b822b9f02ed3c542", "8b9a1fc424bbe23e"},
	"c432/seed1/regions4-w0.005":   {"b8296adb8ec0fac0", "593c48ce57969633"},
	"c432/seed1/GS":                {"3a1a95acc76608ad", "4f45f718f95b6e54"},
	"c432/seed2/default":           {"699e202af5a43b6d", "b8dc56eef129f848"},
	"c432/seed2/regions4-w0.005":   {"5a96e51a2ea17a0f", "f16e4dbb2318ab8a"},
	"c432/seed2/GS":                {"33039eb3526aeb40", "05f092ea6d2fc879"},
	"c499/seed1/default":           {"c5a10269d917df98", "94104de0bab0f390"},
	"c499/seed1/regions4-w0.005":   {"ea67760a696bea8b", "c4a05c6401574926"},
	"c499/seed1/GS":                {"9f1fb9b38e74ef23", "e5f26f6b0795f031"},
	"c499/seed2/default":           {"584c5b1d62a2d8b4", "8ff5c131ce69defe"},
	"c499/seed2/regions4-w0.005":   {"7bacefd9a8308e2f", "a6314ae58134af9a"},
	"c499/seed2/GS":                {"10690a7befb25780", "8ffddca266930ea8"},
	"c1355/seed1/default":          {"7ea49c957a7aee66", "454a31ef5fa1fa6b"},
	"c1355/seed1/regions4-w0.005":  {"dd20baa517adbd0d", "736623650e2b9f52"},
	"c1355/seed1/GS":               {"f45713097d5c156f", "54c5bc5ff071c3be"},
	"c1355/seed2/default":          {"8d3f823600b01d16", "b156679c67db3c32"},
	"c1355/seed2/regions4-w0.005":  {"81c1e984ad6df52e", "d74b75dc859a78ef"},
	"c1355/seed2/GS":               {"940bdcc592dbfb47", "b1e5987eb9cf73a6"},
	"c1908/seed1/default":          {"2b9ec0433cdc572d", "1c62c79a635318e0"},
	"c1908/seed1/regions4-w0.005":  {"ab324094f50eab8b", "5e785633ee56fe68"},
	"c1908/seed1/GS":               {"66abf88afc0b3c48", "38425461e814e2c3"},
	"c1908/seed2/default":          {"178f7eea2c4c4dad", "441aa82062f30c63"},
	"c1908/seed2/regions4-w0.005":  {"a78be456a337ceb1", "bcb29991aa983eb0"},
	"c1908/seed2/GS":               {"0622f8736b434748", "c3177a2e77f75d93"},
	"c2670/seed1/default":          {"06816de540f8b697", "92f793278089dcc6"},
	"c2670/seed1/regions4-w0.005":  {"af652060d9e771bc", "d7b484b7cd5b2878"},
	"c2670/seed1/GS":               {"dcdc08288632ea64", "dca1b0e6284a7672"},
	"c2670/seed2/default":          {"41175caeb31bdf4e", "5196576db654653e"},
	"c2670/seed2/regions4-w0.005":  {"ae62b66ac7db0184", "c73e886269085c2c"},
	"c2670/seed2/GS":               {"a99e546738389d9c", "f3c35c06c8702091"},
	"c3540/seed1/default":          {"4cbe9c0c4826e46c", "5c9cd85a567991e5"},
	"c3540/seed1/regions4-w0.005":  {"02e6444b5e3651e8", "dd39a950daa591cb"},
	"c3540/seed1/GS":               {"df85aab2410bac53", "758d1776c3913c10"},
	"c3540/seed2/default":          {"ccb8a16be931c0f4", "2599fb10854abd59"},
	"c3540/seed2/regions4-w0.005":  {"1e376fd516d08b0d", "79a2a4f245a95ace"},
	"c3540/seed2/GS":               {"c4a1dfd8686d1e0d", "43df99d11f6406d7"},
	"c5315/seed1/default":          {"32125482478f43d0", "d43246945422f930"},
	"c5315/seed1/regions4-w0.005":  {"9e5f7a84d4bd4ec2", "8a43a0c9359bf4ec"},
	"c5315/seed1/GS":               {"b5d710c3d3a3ee68", "171160b545fb432c"},
	"c5315/seed2/default":          {"8191de5c5af54744", "5dcf4571b7ca0cae"},
	"c5315/seed2/regions4-w0.005":  {"2333e9b49bc256f6", "dba47e5828ad5734"},
	"c5315/seed2/GS":               {"3de96d9c8fa2277d", "24104c11d07fc088"},
	"c6288/seed1/default":          {"ac8c75a325587003", "96be8f2c04923781"},
	"c6288/seed1/regions4-w0.005":  {"87e99d93dc6d4543", "82df0454d9a39017"},
	"c6288/seed1/GS":               {"91f4b02322d15000", "49a6653e089a3524"},
	"c6288/seed2/default":          {"d6fffd3bb1734735", "7338985c1f074c11"},
	"c6288/seed2/regions4-w0.005":  {"846be72ba8b8f992", "bb567f04080d6772"},
	"c6288/seed2/GS":               {"65d351bf1beffbe4", "d4e71ce36d409ac4"},
	"c7552/seed1/default":          {"bef30a475a0c072e", "d4bb239662dda0f5"},
	"c7552/seed1/regions4-w0.005":  {"10f5b5cbf0f20c41", "bb809b2f91b85992"},
	"c7552/seed1/GS":               {"6d26cc916ca636d9", "9454f0131c508056"},
	"c7552/seed2/default":          {"b137ef4c42236269", "3eef16238e86933d"},
	"c7552/seed2/regions4-w0.005":  {"b5821ad161d7227d", "8aff379a99a430c6"},
	"c7552/seed2/GS":               {"254f7d5e89c63421", "b7dbad557a799577"},
	"i10/seed1/default":            {"b398ab2ee1c1700a", "cc36e8630dfeeda9"},
	"i10/seed1/regions4-w0.005":    {"93164bafca0884d6", "6de1fd2158f1c81e"},
	"i10/seed1/GS":                 {"24d75f730d4278d3", "8714e85258a15515"},
	"i10/seed2/default":            {"7e35648bea2237f1", "a7d20c540a1795bd"},
	"i10/seed2/regions4-w0.005":    {"37d8e9de71fa315f", "4eabd2f7a4d9efc1"},
	"i10/seed2/GS":                 {"5ceba81028708546", "52a1e229740f693d"},
	"x3/seed1/default":             {"6b5d275dabd6a486", "fe43146136a302de"},
	"x3/seed1/regions4-w0.005":     {"d1fef68c21b775ed", "eae5c8d55dc68ebe"},
	"x3/seed1/GS":                  {"4abbbd9a99cead6b", "e61d6e1a4b85f483"},
	"x3/seed2/default":             {"9f76ea56ee628975", "07fee44cd0c2eacc"},
	"x3/seed2/regions4-w0.005":     {"31a49f18f72cceec", "d077f87b9f439650"},
	"x3/seed2/GS":                  {"1de2a364d6ceb635", "2cb1efd858cd2e15"},
	"i8/seed1/default":             {"6fd8765fc28c9cca", "6d7c787695777cd9"},
	"i8/seed1/regions4-w0.005":     {"2eb9e21c69fcc40f", "488c65aa9083106a"},
	"i8/seed1/GS":                  {"bd51ace400cfabac", "a074384d36f52512"},
	"i8/seed2/default":             {"3b18ffcb28bc8f17", "30443fa3aad528de"},
	"i8/seed2/regions4-w0.005":     {"7ad378b24322b740", "bbded28624a22ab6"},
	"i8/seed2/GS":                  {"a70f154ffe7ebe65", "9bdb1cb07ed98d2c"},
	"k2/seed1/default":             {"26a1f0118f9cf45c", "51e35c9bb3447db8"},
	"k2/seed1/regions4-w0.005":     {"bca9919b165abca8", "792aca84c840f0c9"},
	"k2/seed1/GS":                  {"df29470818a23206", "0d45358d54552e6f"},
	"k2/seed2/default":             {"3670b5bf344505b3", "837ce6d1ced5010a"},
	"k2/seed2/regions4-w0.005":     {"9a4ff5b2ac51ae73", "85751b0e37d215cd"},
	"k2/seed2/GS":                  {"0ca5dd74943ae2fd", "6ffc4638fa2bea22"},
	"s5378/seed1/default":          {"8033a32d04b9c9a2", "84f60fd361255798"},
	"s5378/seed1/regions4-w0.005":  {"27f25c94f7604845", "b4ac16d4b19ed9e8"},
	"s5378/seed1/GS":               {"4ad4cc3365405f78", "7541f65bd01e4b16"},
	"s5378/seed2/default":          {"ef6a2ad0e38134c1", "2fbd54924bded94f"},
	"s5378/seed2/regions4-w0.005":  {"ae098a04037f26b4", "110b6a1f66d66887"},
	"s5378/seed2/GS":               {"3dc12c76dcadc205", "906d44062fa0e2ca"},
	"s13207/seed1/default":         {"3e5fb6a9fc9e882e", "34685520d6984c35"},
	"s13207/seed1/regions4-w0.005": {"d57cc03395b2d1aa", "264786c72b01da73"},
	"s13207/seed1/GS":              {"a38d75db2961ae77", "11cc2fd7dbbdcbb6"},
	"s13207/seed2/default":         {"e99d34c25a5ec5ba", "eeaae1be558e43a7"},
	"s13207/seed2/regions4-w0.005": {"afd6c13b3ec9ab7a", "34f26d7d77e8ca62"},
	"s13207/seed2/GS":              {"9d97e3c7686c3bcc", "d2d2ecb28e2955c8"},
	"s15850/seed1/default":         {"19664cb45bd585c3", "50e1b08a1c655017"},
	"s15850/seed1/regions4-w0.005": {"4385e2ccc6eddba5", "f09384ada13aa0ba"},
	"s15850/seed1/GS":              {"2128435ffb659912", "292bc87e3d754b5c"},
	"s15850/seed2/default":         {"c47123208deb90ab", "6ad6d4ce9bba6f1b"},
	"s15850/seed2/regions4-w0.005": {"9166b0cf8a6291f2", "1049ddcf6fa08a2f"},
	"s15850/seed2/GS":              {"8fef204f66fbc082", "ceb838d9e102d020"},
	"s38417/seed1/default":         {"718884c274072998", "6d325684fee2a47b"},
	"s38417/seed1/regions4-w0.005": {"c54cb45002165fd7", "a96f738497c3d628"},
	"s38417/seed1/GS":              {"b4bc012473b515b7", "e8eb33dbc7beccf1"},
	"s38417/seed2/default":         {"25b0e36c5c0d18be", "1b9d2cb7b677b762"},
	"s38417/seed2/regions4-w0.005": {"d63efeb90de6bac5", "3b812cc4a4148fe4"},
	"s38417/seed2/GS":              {"c02bfdfa03bf5584", "5d746df9a50eeed9"},
}

func TestOptimizeNetworkGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("optimizer goldens are pinned to amd64 (running on %s)", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("full optimizer runs")
	}
	for _, name := range gen.Benchmarks() {
		for seed := int64(1); seed <= 2; seed++ {
			// One placement per circuit and seed serves all three configs.
			base := goldenPlacement(t, name, seed)
			for _, cfg := range goldenConfigs {
				n, _ := base.Clone()
				r := optimizeGolden(n, cfg)
				key := fmt.Sprintf("%s/seed%d/%s", name, seed, cfg.name)
				js := resultJSON(t, r)
				got := [2]string{networkHash(n), shortHash(js)}
				if *printGolden {
					fmt.Printf("\t%q: {%q, %q},\n", key, got[0], got[1])
					continue
				}
				if want, ok := goldenRows[key]; !ok || got != want {
					t.Errorf("%s: got network %s result %s, want %s %s\nresult: %s", key, got[0], got[1], want[0], want[1], js)
				}
			}
		}
	}
	if !*printGolden && len(goldenRows) != len(gen.Benchmarks())*2*len(goldenConfigs) {
		t.Errorf("goldenRows has %d rows, want one per circuit, seed and config", len(goldenRows))
	}
}
