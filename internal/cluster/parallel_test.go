package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"csbsim/internal/obs/journey"
	"csbsim/internal/sim"
)

// ringGuest builds a guest that sends `sends` one-word packets (values
// v, v+1, …, each from its own packet-buffer slot, on the default route)
// and then drains `recvs` inbound words, storing their sum at 0x20000.
func ringGuest(v, sends, recvs int) string {
	var b strings.Builder
	b.WriteString("\t.equ NICREG, 0x40000000\n\t.equ PKTBUF, 0x40001000\n")
	b.WriteString("\tset NICREG, %o0\n\tset PKTBUF, %o1\n")
	b.WriteString("\tset 8, %g4\n\tsll %g4, 48, %g4\n")
	fmt.Fprintf(&b, "\tset %d, %%g6\n", v)
	if sends > 0 {
		fmt.Fprintf(&b, "\tset %d, %%g7\n", sends)
		b.WriteString("\tclr %o3\n")
		b.WriteString("send:\tadd %o1, %o3, %o4\n")
		b.WriteString("\tstx %g6, [%o4]\n\tmembar\n")
		b.WriteString("\tor %g4, %o3, %g3\n")
		b.WriteString("\tstx %g3, [%o0]\n")
		b.WriteString("\tadd %o3, 8, %o3\n\tinc %g6\n")
		b.WriteString("\tsubcc %g7, 1, %g7\n\tbnz send\n")
	}
	if recvs > 0 {
		fmt.Fprintf(&b, "\tset %d, %%g7\n", recvs)
		b.WriteString("\tclr %g5\n")
		fmt.Fprintf(&b, "wait:\tldx [%%o0+0x28], %%g1\n\tcmp %%g1, %d\n\tbl wait\n", recvs)
		b.WriteString("drain:\tldx [%o0+0x20], %g2\n\tadd %g5, %g2, %g5\n")
		b.WriteString("\tsubcc %g7, 1, %g7\n\tbnz drain\n")
		b.WriteString("\tset 0x20000, %o2\n\tstx %g5, [%o2]\n\tmembar\n")
	}
	b.WriteString("\thalt\n")
	return b.String()
}

// sumOf is the value ringGuest's receiver stores: the sum of `count`
// consecutive values starting at base.
func sumOf(base, count int) uint64 {
	s := 0
	for i := 0; i < count; i++ {
		s += base + i
	}
	return uint64(s)
}

// ringSnapshot is everything the determinism guard compares byte-wise.
type ringSnapshot struct {
	cycle    uint64
	journeys []byte // every tracer's retained journeys, JSON
	stats    []byte // per-node machine stats, JSON
	reg      []byte // cluster registry snapshot, JSON
}

// ringSends is how many packets each guardRing node sends and receives.
const ringSends = 3

// guardRing builds the guard workload — a 4-node traced ring with
// per-link bandwidth, queue depth and RX staging all exercised, each node
// sending ringSends packets clockwise and receiving as many.
func guardRing(t *testing.T, wire uint64) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Topology = TopoRing
	cfg.WireLatency = wire
	cfg.Bandwidth = 2
	cfg.LinkDepth = 8
	cfg.RxEnqueueDelay = 13
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes() {
		n.MapIO(false)
		if _, err := n.M.LoadSource("ring.s", ringGuest(100*(i+1), ringSends, ringSends)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AttachTrace(); err != nil {
		t.Fatal(err)
	}
	return c
}

// runRing runs guardRing at a 90-cycle wire with the given engine,
// verifies delivery, and snapshots every observable output.
func runRing(t *testing.T, run func(*Cluster) error) ringSnapshot {
	t.Helper()
	c := guardRing(t, 90)
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes() {
		from := (i + 3) % 4
		want := sumOf(100*(from+1), ringSends)
		if got := n.M.RAM.ReadUint(0x20000, 8); got != want {
			t.Errorf("node %s received sum %d, want %d", n.Name(), got, want)
		}
	}
	checkTracers(t, c)
	return snapshotOf(t, c)
}

// journeysJSON renders every node's retained journeys and the
// cluster's wire journeys.
func journeysJSON(c *Cluster) ([]byte, error) {
	all := [][]journey.Journey{c.Trace().Retained()}
	for _, n := range c.Nodes() {
		all = append(all, n.M.Journeys().Retained())
	}
	return json.Marshal(all)
}

// snapshotOf renders c's observable outputs for byte-wise comparison.
func snapshotOf(t *testing.T, c *Cluster) ringSnapshot {
	t.Helper()
	var (
		snap ringSnapshot
		err  error
	)
	snap.cycle = c.Cycle()
	if snap.journeys, err = journeysJSON(c); err != nil {
		t.Fatal(err)
	}
	var stats []sim.Stats
	for _, n := range c.Nodes() {
		stats = append(stats, n.M.Stats())
	}
	if snap.stats, err = json.Marshal(stats); err != nil {
		t.Fatal(err)
	}
	if snap.reg, err = json.Marshal(c.Registry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestParallelMatchesSequential is the determinism guard (the PR's
// acceptance check): the parallel engine must produce
// byte-identical journeys, machine stats and counter snapshots (the
// span histograms and run counters among them) to the
// inline sequential reference, and repeated parallel runs must be
// byte-identical to each other.
func TestParallelMatchesSequential(t *testing.T) {
	seq := runRing(t, func(c *Cluster) error { return c.Run(2_000_000, false) })
	par := runRing(t, func(c *Cluster) error { return c.Run(2_000_000, true) })
	par2 := runRing(t, func(c *Cluster) error { return c.Run(2_000_000, true) })

	if seq.cycle != par.cycle {
		t.Errorf("final cycle: sequential %d, parallel %d", seq.cycle, par.cycle)
	}
	check := func(what string, a, b []byte) {
		t.Helper()
		if !bytes.Equal(a, b) {
			t.Errorf("%s differ:\n%s\n---- vs ----\n%s", what, a, b)
		}
	}
	check("journeys (seq vs par)", seq.journeys, par.journeys)
	check("machine stats (seq vs par)", seq.stats, par.stats)
	check("registry snapshots (seq vs par)", seq.reg, par.reg)
	check("journeys (par vs par)", par.journeys, par2.journeys)
	check("machine stats (par vs par)", par.stats, par2.stats)
	check("registry snapshots (par vs par)", par.reg, par2.reg)

	var reg struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(seq.reg, &reg); err != nil {
		t.Fatal(err)
	}
	if s, c := reg.Counters["journey/wire/started"], reg.Counters["journey/wire/completed"]; s != 12 || c != 12 {
		t.Errorf("packets started=%d completed=%d, want 12/12", s, c)
	}
}

// TestParallelNodeChurn runs an 8-node ring where nodes send different
// packet counts and halt at staggered times — under -race this covers
// worker goroutines freezing and thawing around barriers.
func TestParallelNodeChurn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 8
	cfg.Topology = TopoRing
	cfg.WireLatency = 40
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := func(i int) int { return i%3 + 1 }
	for i, n := range c.Nodes() {
		n.MapIO(false)
		src := ringGuest(10*(i+1), counts(i), counts((i+7)%8))
		if _, err := n.M.LoadSource("churn.s", src); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(2_000_000, true); err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes() {
		from := (i + 7) % 8
		want := sumOf(10*(from+1), counts(from))
		if got := n.M.RAM.ReadUint(0x20000, 8); got != want {
			t.Errorf("node %s received sum %d, want %d", n.Name(), got, want)
		}
	}
}

// TestParallelAbortFlushesObs: a faulting node under the parallel engine
// aborts the run with the node named in the error, and the abort path
// still closes the recording, partial wire journeys included, even
// though a sibling node is wedged in an infinite poll.
func TestParallelAbortFlushesObs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	cfg.WireLatency = 50_000 // packet still on the wire at fault time
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		n.MapIO(false)
	}
	if _, err := c.AttachTrace(); err != nil {
		t.Fatal(err)
	}
	buf := attachRecording(t, c, 100_000_000) // period longer than the run
	// Node 0 sends (default route: node 1), spins past its NIC transmit,
	// then faults; node 1 polls forever for a packet still crossing the
	// wire; node 2 polls forever for a packet that never comes.
	bad := `
	.equ NICREG, 0x40000000
	.equ PKTBUF, 0x40001000
	set NICREG, %o0
	set PKTBUF, %o1
	set 1, %g1
	stx %g1, [%o1]
	membar
	set 8, %g4
	sll %g4, 48, %g4
	stx %g4, [%o0]
	membar
	set 500, %g5
spin:	dec %g5
	tst %g5
	bnz spin
	set 0x70000000, %o1
	ldx [%o1], %g1
	halt
`
	if _, err := c.Node(0).M.LoadSource("bad.s", bad); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		if _, err := c.Node(i).M.LoadSource("wedge.s", ringGuest(0, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	err = c.Run(10_000_000, true)
	if err == nil {
		t.Fatal("expected node fault")
	}
	if !strings.Contains(err.Error(), "n0") {
		t.Errorf("error does not name the faulting node: %v", err)
	}
	requireFlushedAt(t, buf.Bytes(), c.Cycle())
	wire := c.Trace().Retained()
	if len(wire) != 1 || wire[0].Done {
		t.Fatalf("expected one partial wire journey, got %+v", wire)
	}
}

// TestTxDestSteering: a guest writing RegTxDest overrides the mesh
// default route — node 0 sends to node 2 directly, node 1 sees nothing.
func TestTxDestSteering(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	cfg.WireLatency = 40
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		n.MapIO(false)
	}
	steer := `
	.equ NICREG, 0x40000000
	.equ PKTBUF, 0x40001000
	set NICREG, %o0
	set PKTBUF, %o1
	set 0x77, %g1
	stx %g1, [%o1]
	membar
	set 2, %g2
	stx %g2, [%o0+0x30]
	set 8, %g4
	sll %g4, 48, %g4
	stx %g4, [%o0]
	membar
	halt
`
	if _, err := c.Node(0).M.LoadSource("steer.s", steer); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(1).M.LoadSource("idle.s", "halt\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(2).M.LoadSource("recv.s", ringGuest(0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(1_000_000, true); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(2).M.RAM.ReadUint(0x20000, 8); got != 0x77 {
		t.Errorf("steered packet: node 2 got %#x, want 0x77", got)
	}
	if got := c.Node(1).NIC.RxHighWater(); got != 0 {
		t.Errorf("default-route node 1 saw %d RX words, want 0", got)
	}
}

// TestStarTopologyRouting: leaves default-route to the hub; the hub must
// steer, and an unsteered hub packet is dropped and counted.
func TestStarTopologyRouting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Topology = TopoStar
	cfg.WireLatency = 40
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.DefaultRoute(0); got != -1 {
		t.Errorf("star hub default route = %d, want -1 (must steer)", got)
	}
	for i := 1; i < 4; i++ {
		if got := c.DefaultRoute(i); got != 0 {
			t.Errorf("leaf %d default route = %d, want hub", i, got)
		}
		if _, ok := c.Link(i, 0); !ok {
			t.Errorf("leaf %d has no hub link", i)
		}
	}
	if _, ok := c.Link(1, 2); ok {
		t.Error("star leaves must not be directly linked")
	}
	for _, n := range c.Nodes() {
		n.MapIO(false)
	}
	c.AttachCounters()
	// Leaf 1 sends one packet on the default route (the hub picks it up);
	// the hub sends one packet with no steering — dropped.
	if _, err := c.Node(0).M.LoadSource("hub.s", ringGuest(9, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(1).M.LoadSource("leaf.s", ringGuest(5, 1, 0)); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 4; i++ {
		if _, err := c.Node(i).M.LoadSource("idle.s", "halt\n"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(1_000_000, true); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(0).M.RAM.ReadUint(0x20000, 8); got != 5 {
		t.Errorf("hub received %d, want 5", got)
	}
	snap := c.Registry().Snapshot()
	if got := snap.Counters["cluster/route_drops"]; got != 1 {
		t.Errorf("route_drops = %d, want 1 (unsteered hub packet)", got)
	}
}

// TestLinkBandwidthSerializes: a finite-bandwidth link stretches delivery
// of back-to-back packets relative to an infinitely fast one.
func TestLinkBandwidthSerializes(t *testing.T) {
	run := func(cpw uint64) uint64 {
		cfg := DefaultConfig()
		cfg.WireLatency = 20
		cfg.Bandwidth = cpw
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Node(0).MapIO(false)
		c.Node(1).MapIO(false)
		if _, err := c.Node(0).M.LoadSource("send.s", ringGuest(1, 6, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Node(1).M.LoadSource("recv.s", ringGuest(0, 0, 6)); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(1_000_000, true); err != nil {
			t.Fatal(err)
		}
		return c.Cycle()
	}
	fast := run(0)
	slow := run(400)
	if slow < fast+400 {
		t.Errorf("bandwidth not honored: %d vs %d cycles", fast, slow)
	}
}

// TestLinkDepthDrops: a depth-1 link drops the excess of a burst and the
// drop surfaces in cluster/link_drops.
func TestLinkDepthDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WireLatency = 5000 // long enough that the burst overlaps in flight
	cfg.LinkDepth = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Node(0).MapIO(false)
	c.Node(1).MapIO(false)
	c.AttachCounters()
	if _, err := c.Node(0).M.LoadSource("send.s", ringGuest(1, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(1).M.LoadSource("recv.s", ringGuest(0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(1_000_000, true); err != nil {
		t.Fatal(err)
	}
	snap := c.Registry().Snapshot()
	if got := snap.Counters["cluster/link_drops"]; got != 2 {
		t.Errorf("link_drops = %d, want 2", got)
	}
	if got := c.Node(1).M.RAM.ReadUint(0x20000, 8); got != 1 {
		t.Errorf("survivor packet = %d, want 1", got)
	}
}

// TestSetLinkOverride: per-link latency overrides hold, and overriding a
// non-edge fails.
func TestSetLinkOverride(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Topology = TopoRing
	cfg.WireLatency = 30
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetLink(0, 1, LinkConfig{Latency: 900}); err != nil {
		t.Fatal(err)
	}
	if lc, ok := c.Link(0, 1); !ok || lc.Latency != 900 {
		t.Errorf("override not applied: %+v", lc)
	}
	if lc, ok := c.Link(1, 0); !ok || lc.Latency != 30 {
		t.Errorf("reverse direction touched: %+v", lc)
	}
	if err := c.SetLink(0, 2, LinkConfig{Latency: 1}); err == nil {
		t.Error("SetLink accepted a non-edge of the ring")
	}
	if err := c.SetLink(0, 9, LinkConfig{}); err == nil {
		t.Error("SetLink accepted an out-of-range node")
	}
}
