package network

// DirtyLen reports how many value-only changes wait for the next
// Snapshot to patch.
func DirtyLen(n *Network) int { return len(n.snapDirty) }
