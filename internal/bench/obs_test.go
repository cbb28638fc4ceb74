package bench

import (
	"io"
	"testing"

	"csbsim/internal/cluster"
	"csbsim/internal/device"
	"csbsim/internal/mem"
	"csbsim/internal/obs/rec"
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
		if err := m.AddNIC(nic); err != nil {
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

// BenchmarkObservedPingPong times the X8 ping-pong (CSB sends, 600
// rounds, wire latency 60) under each observer stack: none, per-node
// journeys, the cross-node trace (journeys plus wire spans), and that
// trace plus a flight recorder rolling 10k-cycle windows, with an SLO,
// into a discarded writer. An observer's wall-time cost is the
// difference between sub-benchmarks' ns/cycle; its cost in simulator
// work is exact and held by TestObservedEffort (internal/sim) and
// TestServeObservedEffort (internal/cluster/loadgen).
func BenchmarkObservedPingPong(b *testing.B) {
	for _, mode := range []string{"off", "journeys", "cluster-trace", "recorder"} {
		b.Run(mode, func(b *testing.B) {
			var cycles uint64
			for range b.N {
				b.StopTimer()
				c := observedPingPong(b, mode)
				b.StartTimer()
				if err := c.Run(100_000_000, false); err != nil {
					b.Fatal(err)
				}
				cycles += c.HaltCycle()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
		})
	}
}

// observedPingPong builds BenchmarkObservedPingPong's cluster, loaded,
// warm and observed as mode names.
func observedPingPong(b *testing.B, mode string) *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.WireLatency = 60
	c, err := cluster.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ping, pong := PingPongPrograms(SendCSB, 600)
	for i, src := range []string{ping, pong} {
		n := c.Node(i)
		n.MapIO(true)
		n.M.MapRange(0x200000, 1<<16, mem.KindCached)
		p, err := n.M.LoadSource(n.Name()+".s", src)
		if err != nil {
			b.Fatal(err)
		}
		n.M.WarmProgram(p)
		if mode == "journeys" {
			if _, err := n.M.AttachJourneys(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if mode == "cluster-trace" || mode == "recorder" {
		if _, err := c.AttachTrace(); err != nil {
			b.Fatal(err)
		}
	}
	if mode == "recorder" {
		r, err := rec.New(rec.DefaultConfig())
		if err == nil {
			err = r.SetWriter(io.Discard)
		}
		var slo *rec.SLO
		if err == nil {
			slo, err = rec.ParseSLO("cluster/nodes_down == 0; p99(*/journey/e2e/wire) <= 1000000")
		}
		if err == nil {
			err = r.SetSLO(slo)
		}
		if err == nil {
			err = c.AttachRecorder(r)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	return c
}
