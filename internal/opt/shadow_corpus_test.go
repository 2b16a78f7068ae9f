//go:build corpus

package opt

import (
	"testing"

	"repro/internal/gen"
)

// TestPhaseStartsMatchFreshStateCorpus runs the shadow on every row of
// TestOptimizeNetworkGolden: each Table 1 circuit at placement seeds 1
// and 2 under every golden config. Run it with make corpus.
func TestPhaseStartsMatchFreshStateCorpus(t *testing.T) {
	for _, name := range gen.Benchmarks() {
		for seed := int64(1); seed <= 2; seed++ {
			shadowGolden(t, name, seed)
		}
	}
}
