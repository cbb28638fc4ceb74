package bench

import (
	"testing"

	"csbsim/internal/cluster"
	"csbsim/internal/device"
	"csbsim/internal/mem"
	"csbsim/internal/sim"
)

// checkCPI enforces the observability layer's core invariant on a
// finished machine: every cycle was charged to exactly one CPI bucket, so
// the stack sums to the cycle counter.
func checkCPI(t *testing.T, name string, s sim.Stats) {
	t.Helper()
	if total := s.CPU.CPI.Total(); total != s.CPU.Cycles {
		t.Errorf("%s: CPI stack sums to %d, CPU cycles = %d\n%s",
			name, total, s.CPU.Cycles, s.CPU.CPI.Format())
	}
}

// TestCPIStackInvariantBandwidth runs the store-bandwidth workload under
// every scheme and checks the invariant on realistic pipeline behavior
// (uncached drains, combining windows, CSB flush stalls).
func TestCPIStackInvariantBandwidth(t *testing.T) {
	for _, scheme := range []Scheme{Scheme(0), Scheme(8), SchemeCSB} {
		p := DefaultParams()
		p.Scheme = scheme
		m, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		kind := mem.KindUncached
		if scheme == SchemeCSB {
			kind = mem.KindCombining
		}
		m.MapRange(IOBase, 1<<20, kind)
		src := StoreBandwidthProgram(1024, p.LineSize, scheme == SchemeCSB)
		prog, err := m.LoadSource("bw.s", src)
		if err != nil {
			t.Fatal(err)
		}
		m.WarmProgram(prog)
		if err := m.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		if err := m.Drain(1_000_000); err != nil {
			t.Fatal(err)
		}
		checkCPI(t, scheme.String(), m.Stats())
	}
}

// TestCPIStackInvariantPingPong runs the two-node ping-pong workload and
// checks the invariant on both machines — covering NIC interrupts,
// polling loops and cross-node timing.
func TestCPIStackInvariantPingPong(t *testing.T) {
	for _, method := range []SendMethod{SendPIO, SendCSB} {
		cfg := cluster.DefaultConfig()
		cfg.WireLatency = 60
		c, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range c.Nodes() {
			n.MapIO(method == SendCSB)
			n.M.MapRange(0x200000, 1<<16, mem.KindCached)
		}
		pa, err := c.Node(0).M.LoadSource("ping.s", pingProgram(method, 5))
		if err != nil {
			t.Fatal(err)
		}
		pb, err := c.Node(1).M.LoadSource("pong.s", pongProgram(method, 5))
		if err != nil {
			t.Fatal(err)
		}
		c.Node(0).M.WarmProgram(pa)
		c.Node(1).M.WarmProgram(pb)
		if err := c.Run(10_000_000, false); err != nil {
			t.Fatal(err)
		}
		checkCPI(t, "pingpong/"+method.String()+"/n0", c.Node(0).M.Stats())
		checkCPI(t, "pingpong/"+method.String()+"/n1", c.Node(1).M.Stats())
	}
}

// TestCPIStackInvariantMessageSend runs the PIO-vs-DMA message-send
// workload (the piodma example's core) for each send method.
func TestCPIStackInvariantMessageSend(t *testing.T) {
	for _, method := range []SendMethod{SendPIO, SendCSB, SendDMA} {
		p := DefaultParams()
		m, err := sim.New(sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		nic := device.NewNIC(device.DefaultConfig(), NICBase)
		if err := m.AddDevice(NICBase, device.RegionSize, "nic", nic, nic); err != nil {
			t.Fatal(err)
		}
		m.MapRange(NICBase, device.PacketBufBase, mem.KindUncached)
		bufKind := mem.KindUncached
		if method == SendCSB {
			bufKind = mem.KindCombining
		}
		m.MapRange(NICBase+device.PacketBufBase, device.PacketBufSize, bufKind)
		m.MapRange(0x200000, 1<<16, mem.KindCached)
		m.WarmData(0x200000, 256)
		prog, err := m.LoadSource("send.s", messageSendProgram(method, 256, p.LineSize))
		if err != nil {
			t.Fatal(err)
		}
		m.WarmProgram(prog)
		if err := m.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		if err := m.Drain(1_000_000); err != nil {
			t.Fatal(err)
		}
		checkCPI(t, "piodma/"+method.String(), m.Stats())
	}
}
