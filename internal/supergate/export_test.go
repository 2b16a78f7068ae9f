package supergate

import "fmt"

// CheckLeafConsumers verifies the cache's reverse leaf index against the
// current decomposition: every valid supergate is listed exactly once
// under each distinct leaf driver, and nothing else is listed.
func CheckLeafConsumers(c *Cache) error {
	want := make(map[int]map[*Supergate]bool)
	for _, sg := range c.Extraction().Supergates {
		for _, l := range sg.Leaves {
			id := l.Driver.ID()
			if want[id] == nil {
				want[id] = make(map[*Supergate]bool)
			}
			want[id][sg] = true
		}
	}
	for id, cons := range c.leafConsumers {
		seen := make(map[*Supergate]bool, len(cons))
		for _, sg := range cons {
			if seen[sg] {
				return fmt.Errorf("gate %d lists %v twice", id, sg)
			}
			seen[sg] = true
			if !want[id][sg] {
				return fmt.Errorf("gate %d lists %v, which has no valid leaf there", id, sg)
			}
		}
		if len(seen) != len(want[id]) {
			return fmt.Errorf("gate %d lists %d consumers, want %d", id, len(seen), len(want[id]))
		}
	}
	for id := range want {
		if id >= len(c.leafConsumers) {
			return fmt.Errorf("gate %d has consumers but no index entry", id)
		}
	}
	return nil
}
