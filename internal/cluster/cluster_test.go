package cluster

import (
	"testing"

	"csbsim/internal/device"
	"csbsim/internal/mem"
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
	c.Node(0).MapIO(false)
	c.Node(1).MapIO(false)
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
		c.Node(0).MapIO(false)
		c.Node(1).MapIO(false)
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
	c.Node(0).MapIO(false)
	c.Node(1).MapIO(false)
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

func TestBidirectionalTraffic(t *testing.T) {
	c := newCluster(t, 30)
	c.Node(0).MapIO(false)
	c.Node(1).MapIO(false)
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
	c.Node(0).MapIO(false)
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
	pte, ok := c.Node(0).M.AddressSpace(0).Lookup(NICBase + device.PacketBufBase)
	if !ok || pte.Kind != mem.KindCombining {
		t.Errorf("packet buffer not combining: %+v", pte)
	}
	pte, ok = c.Node(0).M.AddressSpace(0).Lookup(NICBase)
	if !ok || pte.Kind != mem.KindUncached {
		t.Errorf("registers not uncached: %+v", pte)
	}
}
