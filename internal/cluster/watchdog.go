// Cluster-level watchdog: the PR 4 retire-progress watchdog detects a
// wedged *machine* from inside its own tick loop; this one detects a
// wedged *node* from the cluster's point of view, at the single-threaded
// barrier between lookahead windows. A node is wedged when its CPU
// retired nothing for a whole watchdog window of cluster cycles while
// not halted, not frozen and not already removed from service. Two
// responses: abort the run with a WatchdogError carrying every node's
// diagnostic dump (the default — post-mortem first), or gracefully
// degrade by marking the node down so the rest of the cluster keeps
// serving while packets routed to the corpse are counted as
// cluster/degraded_drops.
package cluster

import (
	"fmt"
	"strings"
)

// WatchdogError reports a wedged node detected by the cluster watchdog.
// Dump carries every node's diagnostic dump plus the cluster's fault and
// fabric state — the cluster-wide post-mortem.
type WatchdogError struct {
	// Node is the wedged node's name.
	Node string
	// Window is the configured watchdog window in cluster cycles.
	Window uint64
	// Cycle is the cluster cycle the watchdog fired.
	Cycle uint64
	// Retired is the wedged node's retired-instruction count, unchanged
	// for the whole window.
	Retired uint64
	// Dump is the multi-node diagnostic dump.
	Dump string
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("cluster: watchdog: node %s retired no instruction for %d cycles (cluster cycle %d, retired=%d)\n%s",
		e.Node, e.Window, e.Cycle, e.Retired, e.Dump)
}

// SetWatchdog arms the cluster watchdog: a node whose CPU retires no
// instruction for `window` cluster cycles — while not halted — is
// declared wedged. With degrade false the run aborts with a
// *WatchdogError (flushing observability state first); with degrade true
// the node is removed from service instead and the run continues in
// degraded mode. The check runs at the engine's barriers, so the
// effective detection granularity is one lookahead window; window must be
// at least one window long to avoid false positives. Call before running.
func (c *Cluster) SetWatchdog(window uint64, degrade bool) error {
	if window == 0 {
		return fmt.Errorf("cluster: watchdog window must be positive")
	}
	if c.wdWindow != 0 {
		return fmt.Errorf("cluster: watchdog already armed")
	}
	c.wdWindow = window
	c.wdDegrade = degrade
	c.wdLast = make([]uint64, len(c.nodes))
	c.wdMark = make([]uint64, len(c.nodes))
	for i, n := range c.nodes {
		c.wdLast[i] = n.M.CPU.Retired()
		c.wdMark[i] = c.cycle
	}
	return nil
}

// DownNodes lists the names of nodes removed from service by graceful
// degradation, in topology order.
func (c *Cluster) DownNodes() []string {
	var names []string
	for _, n := range c.nodes {
		if n.down {
			names = append(names, n.name)
		}
	}
	return names
}

// checkWatchdog runs the wedged-node check over every live node. Returns
// a *WatchdogError when a node is wedged and degradation is off (the
// caller aborts the run); marks the node down and returns nil when
// degradation is on.
//
//csb:barrier reads every node's machine state between windows
func (c *Cluster) checkWatchdog() error {
	if c.wdWindow == 0 {
		return nil
	}
	for i, n := range c.nodes {
		if n.down || n.frozen {
			continue
		}
		r := n.M.CPU.Retired()
		// A halted CPU legitimately retires nothing (the node may live on
		// through its hook) — that is idleness, not a wedge.
		if r != c.wdLast[i] || n.M.CPU.Halted() {
			c.wdLast[i] = r
			c.wdMark[i] = c.cycle
			continue
		}
		if c.cycle-c.wdMark[i] >= c.wdWindow {
			if c.wdDegrade {
				c.markDown(i)
				continue
			}
			c.recEvent(c.cycle, "watchdog", n.name, float64(c.wdWindow))
			c.flushObs()
			return &WatchdogError{
				Node:    n.name,
				Window:  c.wdWindow,
				Cycle:   c.cycle,
				Retired: r,
				Dump:    c.DiagnosticDump(),
			}
		}
	}
	return nil
}

// markDown removes node i from service: it stops ticking and packets
// routed to it are dropped as cluster/degraded_drops.
//
//csb:barrier mutates node scheduling state between windows
func (c *Cluster) markDown(i int) {
	n := c.nodes[i]
	n.down = true
	n.frozen = true
	c.nodesDown++
	c.recEvent(c.cycle, "node_down", n.name, float64(c.nodesDown))
}

// DiagnosticDump renders the cluster-wide post-mortem: the wire fault
// injector's accounting, the fabric's drop counters, the degraded-node
// set, and every node's single-machine diagnostic dump (stats report,
// CPI stack, pipeline and buffer state). Read it at barriers or after a
// run, when no node window is running.
//
//csb:barrier reads every node's machine state between windows
func (c *Cluster) DiagnosticDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "==== cluster diagnostic dump (cycle %d, %d nodes, %s) ====\n",
		c.cycle, len(c.nodes), c.cfg.Topology)
	fmt.Fprintf(&b, "fabric: route_drops=%d link_drops=%d fault_drops=%d fault_dups=%d fault_delay_cycles=%d outage_drops=%d degraded_drops=%d\n",
		c.routeDrops, c.linkDrops, c.faultDrops, c.faultDups, c.faultDelayCycles, c.outageDrops, c.degradedDrops)
	for i := range c.links {
		for j := range c.links[i] {
			if lk := c.links[i][j]; lk != nil && lk.drops > 0 {
				fmt.Fprintf(&b, "fabric: link %s->%s drops=%d\n", c.nodes[i].name, c.nodes[j].name, lk.drops)
			}
		}
	}
	if inj := c.wfaults; inj != nil {
		s := inj.Stats()
		fmt.Fprintf(&b, "wire faults: seed=%d draws=%d drops=%d dups=%d delays=%d (%d cycles) outages=%d (%d cycles)\n",
			s.Seed, s.Draws, s.WireDrops, s.WireDups, s.WireDelays, s.WireDelayCycles, s.OutageWindows, s.OutageCycles)
	}
	if down := c.DownNodes(); len(down) > 0 {
		fmt.Fprintf(&b, "degraded: nodes down: %s\n", strings.Join(down, ", "))
	}
	for _, n := range c.nodes {
		fmt.Fprintf(&b, "---- node %s (retired=%d halted=%v frozen=%v down=%v) ----\n",
			n.name, n.M.CPU.Retired(), n.M.CPU.Halted(), n.frozen, n.down)
		b.WriteString(n.M.DiagnosticDump())
	}
	return b.String()
}
