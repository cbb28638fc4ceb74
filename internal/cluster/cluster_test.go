package cluster

import (
	"io"
	"testing"

	"csbsim/internal/device"
	"csbsim/internal/mem"
	"csbsim/internal/obs/rec"
)

func newCluster(t *testing.T, wire uint64) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.WireLatency = wire
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sendProg writes an 8-byte message with value v and pushes a descriptor.
func sendProg(v int) string {
	return `
	.equ NICREG, 0x40000000
	.equ PKTBUF, 0x40001000
	set NICREG, %o0
	set PKTBUF, %o1
	set ` + itoa(v) + `, %g1
	stx %g1, [%o1]
	membar
	set 8, %g4
	sll %g4, 48, %g4
	stx %g4, [%o0]
	membar
	halt
`
}

// recvProg polls until one word arrives and stores it at 0x20000.
const recvProg = `
	.equ NICREG, 0x40000000
	set NICREG, %o0
wait:	ldx [%o0+0x28], %g1
	tst %g1
	bz wait
	ldx [%o0+0x20], %g2
	set 0x20000, %o2
	stx %g2, [%o2]
	membar
	halt
`

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestPacketCrossesWire(t *testing.T) {
	c := newCluster(t, 50)
	c.Node(0).M.MapNIC(false)
	c.Node(1).M.MapNIC(false)
	if _, err := c.Node(0).M.LoadSource("send.s", sendProg(0x1234)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(1).M.LoadSource("recv.s", recvProg); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(1_000_000, false); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(1).M.RAM.ReadUint(0x20000, 8); got != 0x1234 {
		t.Errorf("received word = %#x, want 0x1234", got)
	}
}

func TestWireLatencyDelaysDelivery(t *testing.T) {
	cycles := func(wire uint64) uint64 {
		c := newCluster(t, wire)
		c.Node(0).M.MapNIC(false)
		c.Node(1).M.MapNIC(false)
		if _, err := c.Node(0).M.LoadSource("send.s", sendProg(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Node(1).M.LoadSource("recv.s", recvProg); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(1_000_000, false); err != nil {
			t.Fatal(err)
		}
		return c.HaltCycle()
	}
	fast := cycles(0)
	slow := cycles(600)
	if slow < fast+500 {
		t.Errorf("wire latency not honored: %d vs %d cycles", fast, slow)
	}
}

// TestZeroLatencyDeliversInPumpCycle: over a zero-latency wire the
// engine runs 1-cycle windows and its barrier delivers a packet into the
// receiver's RX queue in the cycle the sender's NIC finished it, so the
// receiver's next tick already sees the words.
func TestZeroLatencyDeliversInPumpCycle(t *testing.T) {
	c := newCluster(t, 0)
	if w := c.lookahead(); w != 1 {
		t.Fatalf("window = %d cycles at zero latency, want 1", w)
	}
	c.Node(0).M.MapNIC(false)
	c.Node(1).M.MapNIC(false)
	if _, err := c.Node(0).M.LoadSource("send.s", sendProg(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(1).M.LoadSource("idle.s", "halt\n"); err != nil {
		t.Fatal(err)
	}
	for len(c.Node(0).NIC.Packets()) == 0 {
		if c.Cycle() > 10_000 {
			t.Fatal("packet never sent")
		}
		if err := c.RunFor(1, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Node(1).NIC.RxPending(); got != 1 {
		t.Fatalf("cycle %d: packet sent but %d words queued at the receiver, want 1", c.Cycle(), got)
	}
}

// TestSettledRunForAdvances: RunFor(1) on a settled zero-latency cluster
// moves Cycle one cycle, as a one-cycle window does, also after a run at a
// higher latency left the clock on a window edge past the cycle the
// cluster went quiet; and the recorder's last roll never passes the clock.
func TestSettledRunForAdvances(t *testing.T) {
	c := newCluster(t, 0)
	c.Node(0).M.MapNIC(false)
	c.Node(1).M.MapNIC(false)
	if _, err := c.Node(0).M.LoadSource("send.s", sendProg(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(1).M.LoadSource("idle.s", "halt\n"); err != nil {
		t.Fatal(err)
	}
	r, err := rec.New(rec.Config{Every: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetWriter(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := c.AttachRecorder(r); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(100_000, false); err != nil {
		t.Fatal(err)
	}
	step := func(what string) {
		t.Helper()
		for range 4 {
			before := c.Cycle()
			if err := c.RunFor(1, false); err != nil {
				t.Fatal(err)
			}
			if c.Cycle() != before+1 {
				t.Fatalf("%s: RunFor(1) from cycle %d ended at %d, want %d", what, before, c.Cycle(), before+1)
			}
			if c.lastRoll > c.Cycle() {
				t.Fatalf("%s: recorder last rolled at %d, after the clock %d", what, c.lastRoll, c.Cycle())
			}
		}
	}
	step("settled at latency 0")
	for _, lat := range []uint64{5, 0} {
		for _, ij := range [][2]int{{0, 1}, {1, 0}} {
			if err := c.SetLink(ij[0], ij[1], LinkConfig{Latency: lat}); err != nil {
				t.Fatal(err)
			}
		}
		if lat > 1 {
			if err := c.Run(100_000, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	step("after a latency-5 run")
}

func TestBidirectionalTraffic(t *testing.T) {
	c := newCluster(t, 30)
	c.Node(0).M.MapNIC(false)
	c.Node(1).M.MapNIC(false)
	// Each node sends a distinct word and receives the other's.
	both := func(v int) string {
		return `
	.equ NICREG, 0x40000000
	.equ PKTBUF, 0x40001000
	set NICREG, %o0
	set PKTBUF, %o1
	set ` + itoa(v) + `, %g1
	stx %g1, [%o1]
	membar
	set 8, %g4
	sll %g4, 48, %g4
	stx %g4, [%o0]
wait:	ldx [%o0+0x28], %g1
	tst %g1
	bz wait
	ldx [%o0+0x20], %g2
	set 0x20000, %o2
	stx %g2, [%o2]
	membar
	halt
`
	}
	if _, err := c.Node(0).M.LoadSource("a.s", both(111)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(1).M.LoadSource("b.s", both(222)); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(1_000_000, false); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(0).M.RAM.ReadUint(0x20000, 8); got != 222 {
		t.Errorf("node n0 received %d, want 222", got)
	}
	if got := c.Node(1).M.RAM.ReadUint(0x20000, 8); got != 111 {
		t.Errorf("node n1 received %d, want 111", got)
	}
}

func TestNodeFaultSurfaces(t *testing.T) {
	c := newCluster(t, 0)
	c.Node(0).M.MapNIC(false)
	if _, err := c.Node(0).M.LoadSource("bad.s", "set 0x70000000, %o1\nldx [%o1], %g1\nhalt\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(1).M.LoadSource("ok.s", "halt\n"); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(1_000_000, false); err == nil {
		t.Error("node fault not surfaced")
	}
}

func TestMapIOCombining(t *testing.T) {
	c := newCluster(t, 0)
	c.Node(0).MapIO(true)
	pte, ok := c.Node(0).M.AddressSpace(0).Lookup(device.Base + device.PacketBufBase)
	if !ok || pte.Kind != mem.KindCombining {
		t.Errorf("packet buffer not combining: %+v", pte)
	}
	pte, ok = c.Node(0).M.AddressSpace(0).Lookup(device.Base)
	if !ok || pte.Kind != mem.KindUncached {
		t.Errorf("registers not uncached: %+v", pte)
	}
}

// TestNodesNeedNIC: New and Reset refuse nodes configured without a
// NIC, and the refused Reset leaves the cluster as it was.
func TestNodesNeedNIC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Node.NIC = nil
	if _, err := New(cfg); err == nil {
		t.Error("New built nodes without a NIC")
	}
	c := newCluster(t, 0)
	nic := c.Node(1).NIC
	cfg.Nodes = 3
	if err := c.Reset(cfg); err == nil {
		t.Error("Reset accepted nodes without a NIC")
	}
	if c.NumNodes() != 2 || c.Node(1).NIC != nic || c.Node(1).M.NIC() != nic {
		t.Errorf("the refused Reset changed the cluster: %d nodes", c.NumNodes())
	}
}

// TestResetDropsAttachments: Reset leaves nothing attached after New —
// no hook, link override, wire faults, watchdog, counters, tracer or
// recorder — keeps each node's NIC and word slab, rewound, and a cluster
// reset after a run behaves like a new one.
func TestResetDropsAttachments(t *testing.T) {
	load := func(c *Cluster) {
		t.Helper()
		for i, src := range []string{sendProg(42), recvProg} {
			c.Node(i).M.MapNIC(false)
			if _, err := c.Node(i).M.LoadSource("n.s", src); err != nil {
				t.Fatal(err)
			}
		}
	}
	run := func(c *Cluster) (uint64, uint64) {
		t.Helper()
		load(c)
		if err := c.Run(100_000, false); err != nil {
			t.Fatal(err)
		}
		return c.HaltCycle(), c.Node(1).M.RAM.ReadUint(0x20000, 8)
	}
	c := newCluster(t, 0)
	c.SetNodeHook(0, func(uint64) bool { return true })
	c.SetNodeWake(0, func() uint64 { return 0 })
	if err := c.SetLink(0, 1, LinkConfig{Latency: 500}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AttachWireFaults(wireFaultMix()); err != nil {
		t.Fatal(err)
	}
	if err := c.SetWatchdog(50_000, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AttachTrace(); err != nil {
		t.Fatal(err)
	}
	load(c)
	if err := c.RunFor(2000, false); err != nil {
		t.Fatal(err)
	}
	nic, slab := c.Node(0).NIC, c.Node(0).slab
	if len(slab) == 0 {
		t.Fatal("node n0 pumped no packet before the Reset")
	}
	cfg := DefaultConfig()
	cfg.WireLatency = 0
	if err := c.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	n := c.Node(0)
	switch {
	case n.NIC != nic || n.M.NIC() != nic:
		t.Error("Reset replaced node n0's NIC")
	case n.slabUsed != 0 || &n.slab[0] != &slab[0]:
		t.Errorf("node n0's word slab not kept and rewound (%d words used)", n.slabUsed)
	case c.Cycle() != 0 || n.M.Cycle() != 0:
		t.Errorf("cycles %d/%d after Reset, want 0", c.Cycle(), n.M.Cycle())
	case n.hook != nil || n.wake != nil:
		t.Error("node hook survived Reset")
	case c.links[0][1].Latency != 0:
		t.Errorf("link latency %d survived Reset", c.links[0][1].Latency)
	case c.wfaults != nil || c.wdWindow != 0 || c.reg != nil || c.tracer != nil || c.rec != nil:
		t.Error("an attachment survived Reset")
	case n.M.Counters() != nil || n.M.Journeys() != nil:
		t.Error("a node's counters or journeys survived Reset")
	}
	haltReset, gotReset := run(c)
	halt, got := run(newCluster(t, 0))
	if haltReset != halt || gotReset != got || got != 42 {
		t.Errorf("reset cluster halted at %d with %d, new one at %d with %d, want 42", haltReset, gotReset, halt, got)
	}
}
