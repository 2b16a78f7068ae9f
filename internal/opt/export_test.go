package opt

import (
	"testing"

	"repro/internal/sizing"
)

// setPhaseHook installs hook as the optimizer's phase-start hook until
// the test ends. The hook is package state, so a test that sets it must
// not run in parallel.
func setPhaseHook(t *testing.T, hook func(r run, obj sizing.Objective, ranked []Move)) {
	old := phaseHook
	phaseHook = hook
	t.Cleanup(func() { phaseHook = old })
}
