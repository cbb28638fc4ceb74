package cluster

// GuardRing exposes guardRing to the external lockstep golden test.
var GuardRing = guardRing

// HaltCycle returns the first cluster cycle after whose tick the node's
// CPU read halted, or 0 until then.
func (n *Node) HaltCycle() uint64 { return n.haltAt }
