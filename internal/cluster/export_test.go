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

// TransmitLeads returns each node's transmit lead as the barrier at the
// current cycle reckons it: the earliest cycle the node can pump a
// packet, or math.MaxUint64 for a frozen node.
func (c *Cluster) TransmitLeads() []uint64 {
	leads := make([]uint64, len(c.nodes))
	for i, n := range c.nodes {
		leads[i] = n.transmitLead(c.cycle)
	}
	return leads
}

// Settled reports whether every node is frozen and every flight
// delivered: where Run stops.
func (c *Cluster) Settled() bool { return c.settled() }
