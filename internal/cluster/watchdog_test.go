package cluster

import (
	"errors"
	"strings"
	"testing"

	"csbsim/internal/fault"
)

// wedgeNode attaches a machine-level fault injector that NACKs every bus
// transaction: the CPU's first fetch never completes, so the node ticks
// forever retiring nothing — wedged, not halted.
func wedgeNode(t *testing.T, n *Node) {
	t.Helper()
	if _, err := n.M.AttachFaults(fault.Config{Seed: 3, BusNack: 1024}); err != nil {
		t.Fatal(err)
	}
}

// wedgedPair builds the watchdog workload: node n0 wedged from cycle 0,
// node n1 a healthy idler.
func wedgedPair(t *testing.T) *Cluster {
	t.Helper()
	c := newCluster(t, 120)
	for _, n := range c.Nodes() {
		n.M.MapNIC(false)
		if _, err := n.M.LoadSource("idle.s", "halt\n"); err != nil {
			t.Fatal(err)
		}
	}
	wedgeNode(t, c.Node(0))
	c.AttachCounters()
	return c
}

// TestClusterWatchdogTripsWindowed: a zero-retire node under the
// windowed engine must abort the run with a *WatchdogError naming the
// node and carrying the cluster-wide diagnostic dump.
func TestClusterWatchdogTripsWindowed(t *testing.T) {
	c := wedgedPair(t)
	if err := c.SetWatchdog(2000, false); err != nil {
		t.Fatal(err)
	}
	err := c.Run(1_000_000, true)
	var we *WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("expected *WatchdogError, got %v", err)
	}
	if we.Node != "n0" {
		t.Errorf("watchdog blamed node %q, want n0", we.Node)
	}
	if we.Cycle < 2000 || we.Retired != 0 {
		t.Errorf("bad trip point: cycle=%d retired=%d", we.Cycle, we.Retired)
	}
	for _, want := range []string{
		"==== cluster diagnostic dump",
		"---- node n0",
		"---- node n1",
		"fabric:",
	} {
		if !strings.Contains(we.Dump, want) {
			t.Errorf("dump missing %q", want)
		}
	}
}

// TestClusterWatchdogIdleNotWedged: a halted CPU retires nothing
// legitimately — a node kept alive past the window by its hook must not
// trip the watchdog.
func TestClusterWatchdogIdleNotWedged(t *testing.T) {
	c := newCluster(t, 120)
	for _, n := range c.Nodes() {
		n.M.MapNIC(false)
		if _, err := n.M.LoadSource("idle.s", "halt\n"); err != nil {
			t.Fatal(err)
		}
	}
	c.SetNodeHook(0, func(cycle uint64) bool { return cycle < 5000 })
	if err := c.SetWatchdog(500, false); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(8000, true); err != nil {
		t.Fatalf("idle node tripped the watchdog: %v", err)
	}
}

// TestSetWatchdogValidation: a zero window and re-arming are rejected.
func TestSetWatchdogValidation(t *testing.T) {
	c := newCluster(t, 120)
	if err := c.SetWatchdog(0, false); err == nil {
		t.Error("zero watchdog window accepted")
	}
	if err := c.SetWatchdog(1000, false); err != nil {
		t.Fatal(err)
	}
	if err := c.SetWatchdog(2000, true); err == nil {
		t.Error("watchdog re-arm accepted")
	}
}

// TestClusterWatchdogDegrade: with degradation on, the wedged node is
// removed from service instead of aborting the run — traffic routed to
// the corpse is dropped and counted, and the run completes cleanly.
func TestClusterWatchdogDegrade(t *testing.T) {
	c := wedgedPair(t)
	// Node n1 streams packets at the wedged node well past the markdown.
	hookSender(c, 1, 200, 6000, 7000)
	if err := c.SetWatchdog(1500, true); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(10_000, true); err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	down := c.DownNodes()
	if len(down) != 1 || down[0] != "n0" {
		t.Fatalf("DownNodes = %v, want [n0]", down)
	}
	snap := c.Registry().Snapshot()
	if got := snap.Counters["cluster/nodes_down"]; got != 1 {
		t.Errorf("cluster/nodes_down = %d, want 1", got)
	}
	if got := snap.Counters["cluster/degraded_drops"]; got == 0 {
		t.Error("no degraded drops counted for traffic at the down node")
	}
	// The down node never halts; the halt cycle is the live node's.
	if got := c.HaltCycle(); got == 0 || got != c.Node(1).HaltCycle() {
		t.Errorf("HaltCycle = %d, want n1's %d", got, c.Node(1).HaltCycle())
	}
	if !strings.Contains(c.DiagnosticDump(), "degraded: nodes down: n0") {
		t.Error("diagnostic dump missing the degraded-node list")
	}
}
