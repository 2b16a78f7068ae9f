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

// goldenConfigs are the optimizer configurations of the golden corpus:
// the facade default, regioned with a criticality window, and sizing only.
var goldenConfigs = []struct {
	name    string
	strat   Strategy
	regions int
	window  float64
}{
	{"default", GsgGS, 0, 0},
	{"regions4-w0.005", GsgGS, 4, 0.005},
	{"GS", GS, 0, 0},
}

// goldenRows maps circuit/config to the final-network hash and the
// counter-free Result JSON hash.
var goldenRows = map[string][2]string{
	"alu2/default":           {"16e169933141107b", "c38591d4dc32f666"},
	"alu2/regions4-w0.005":   {"e15bf1a7106e0d85", "c292656b9a16de24"},
	"alu2/GS":                {"fb16aec40999a18f", "12b3894af7b6e27c"},
	"c432/default":           {"b822b9f02ed3c542", "8b9a1fc424bbe23e"},
	"c432/regions4-w0.005":   {"b8296adb8ec0fac0", "593c48ce57969633"},
	"c432/GS":                {"3a1a95acc76608ad", "4f45f718f95b6e54"},
	"c1908/default":          {"2b9ec0433cdc572d", "1c62c79a635318e0"},
	"c1908/regions4-w0.005":  {"ab324094f50eab8b", "5e785633ee56fe68"},
	"c1908/GS":               {"66abf88afc0b3c48", "38425461e814e2c3"},
	"s5378/default":          {"8033a32d04b9c9a2", "84f60fd361255798"},
	"s5378/regions4-w0.005":  {"27f25c94f7604845", "b4ac16d4b19ed9e8"},
	"s5378/GS":               {"4ad4cc3365405f78", "7541f65bd01e4b16"},
	"c6288/default":          {"ac8c75a325587003", "96be8f2c04923781"},
	"c6288/regions4-w0.005":  {"87e99d93dc6d4543", "82df0454d9a39017"},
	"c6288/GS":               {"91f4b02322d15000", "49a6653e089a3524"},
	"s38417/default":         {"718884c274072998", "6d325684fee2a47b"},
	"s38417/regions4-w0.005": {"c54cb45002165fd7", "a96f738497c3d628"},
	"s38417/GS":              {"b4bc012473b515b7", "e8eb33dbc7beccf1"},
}

func TestOptimizeNetworkGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full optimizer runs")
	}
	for _, name := range []string{"alu2", "c432", "c1908", "s5378", "c6288", "s38417"} {
		base, err := gen.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		place.Place(base, lib(), place.Options{Seed: 1, MovesPerCell: 30})
		sizing.SeedForLoad(base, lib(), 0)
		for _, cfg := range goldenConfigs {
			n, _ := base.Clone()
			o := Options{Window: cfg.window}
			var r Result
			if cfg.regions > 1 {
				r = OptimizeRounds(context.Background(), n, lib(), cfg.strat, o)
			} else {
				r = Optimize(context.Background(), n, lib(), cfg.strat, o)
			}
			key := name + "/" + cfg.name
			js := resultJSON(t, r)
			got := [2]string{networkHash(n), shortHash(js)}
			if *printGolden {
				fmt.Printf("\t%q: {%q, %q},\n", key, got[0], got[1])
				continue
			}
			if want := goldenRows[key]; got != want {
				t.Errorf("%s: got network %s result %s, want %s %s\nresult: %s", key, got[0], got[1], want[0], want[1], js)
			}
		}
	}
}
