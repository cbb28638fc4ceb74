package cluster

import "testing"

// GuardRing exposes guardRing to the external lockstep golden test.
var GuardRing = guardRing

// HaltCycle returns the first cluster cycle after whose tick the node's
// CPU read halted, or 0 until then.
func (n *Node) HaltCycle() uint64 { return n.haltAt }

// parkAlways makes every barrier participant park as soon as it has to
// wait, skipping the spin, until the test ends.
func parkAlways(t *testing.T) {
	old := spinBudget
	spinBudget = 0
	t.Cleanup(func() { spinBudget = old })
}

// WindowCounts returns the last run's windows by schedule: inline on the
// coordinator, and on the pool (counted as such even when no pool ran).
func (c *Cluster) WindowCounts() (inline, pooled int) { return c.sched.inline, c.sched.pooled }
