package cluster_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"csbsim/internal/bench"
	"csbsim/internal/cluster"
	"csbsim/internal/mem"
	"csbsim/internal/obs/rec"
)

// buildPingPong is figure X8's cluster: bench.PingPongPrograms with 30
// rounds on two paper-default nodes, untraced, built on c reset to the
// config (a new cluster when c is nil).
func buildPingPong(t *testing.T, c *cluster.Cluster, method bench.SendMethod, wire uint64) *cluster.Cluster {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.WireLatency = wire
	c = newOrReset(t, c, cfg)
	ping, pong := bench.PingPongPrograms(method, 30)
	for i, src := range []string{ping, pong} {
		n := c.Node(i)
		n.MapIO(method == bench.SendCSB)
		n.M.MapRange(0x200000, 1<<16, mem.KindCached)
		p, err := n.M.LoadSource(n.Name()+".s", src)
		if err != nil {
			t.Fatal(err)
		}
		n.M.WarmProgram(p)
	}
	return c
}

// newOrReset returns cluster.New(cfg) when c is nil and c reset to cfg
// otherwise.
func newOrReset(t *testing.T, c *cluster.Cluster, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	if c == nil {
		var err error
		if c, err = cluster.New(cfg); err != nil {
			t.Fatal(err)
		}
	} else if err := c.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestZeroLatencyWindows pins, as counts, what ending windows at the
// transmit lead saves on X8's zero-latency column: the windows per run
// (one per cycle before, since a zero-latency link makes the link window
// one cycle), and each node's steps, while each node's full ticks and the
// halt cycle stay what one-cycle windows give.
func TestZeroLatencyWindows(t *testing.T) {
	for _, tc := range []struct {
		method    bench.SendMethod
		halt      uint64
		windows   int
		fullTicks [2]uint64
		steps     [2]uint64
	}{
		// One-cycle windows ran 30087, 27567 and 31251 windows, and
		// stepped 30087/29718, 27567/27198 and 31251/30888 times.
		{bench.SendPIO, 30087, 2523, [2]uint64{5819, 5717}, [2]uint64{10391, 10637}},
		{bench.SendCSB, 27567, 2312, [2]uint64{5247, 5179}, [2]uint64{9539, 9468}},
		{bench.SendDMA, 31251, 2620, [2]uint64{9173, 9091}, [2]uint64{13427, 13350}},
	} {
		t.Run(tc.method.String(), func(t *testing.T) {
			c := buildPingPong(t, nil, tc.method, 0)
			if err := c.Run(100_000_000, false); err != nil {
				t.Fatal(err)
			}
			inline, pooled := c.WindowCounts()
			windows := inline + pooled
			var full, steps [2]uint64
			for i, n := range c.Nodes() {
				e := n.M.Effort()
				full[i], steps[i] = e.FullTicks, e.Steps
			}
			t.Logf("halt %d, %d windows, full ticks %v, steps %v", c.HaltCycle(), windows, full, steps)
			if c.HaltCycle() != tc.halt {
				t.Errorf("halt cycle %d, want %d", c.HaltCycle(), tc.halt)
			}
			if windows != tc.windows {
				t.Errorf("%d windows, want %d", windows, tc.windows)
			}
			if 10*uint64(windows) > tc.halt {
				t.Errorf("%d windows over %d cycles, want at least 10 cycles a window", windows, tc.halt)
			}
			if full != tc.fullTicks {
				t.Errorf("full ticks %v, want %v", full, tc.fullTicks)
			}
			if steps != tc.steps {
				t.Errorf("steps %v, want %v", steps, tc.steps)
			}
		})
	}
}

// randomGuest returns a guest that makes `sends` sends of a random 1 to 8
// words by method, each after a random delay loop, draining whatever has
// arrived after each, and halts. A push into a full FIFO or a DMA start
// while one runs is dropped by the NIC, as it would be on hardware.
func randomGuest(rng *rand.Rand, method bench.SendMethod, sends int) string {
	var b strings.Builder
	b.WriteString("\tset 0x40000000, %o0\n\tset 0x40001000, %o1\n\tset 0x200000, %o2\n")
	fmt.Fprintf(&b, "\tset %d, %%g6\n\tmovr2f %%g6, %%f0\n", rng.IntN(1000))
	for s := range sends {
		words := 1 + rng.IntN(8)
		fmt.Fprintf(&b, "\tset %d, %%l1\nD%d:\tsubcc %%l1, 1, %%l1\n\tbnz D%d\n", 1+rng.IntN(60), s, s)
		fmt.Fprintf(&b, "\tset %d, %%g4\n\tsll %%g4, 48, %%g4\n", 8*words)
		switch method {
		case bench.SendPIO:
			for w := range words {
				fmt.Fprintf(&b, "\tstd %%f0, [%%o1+%d]\n", 8*w)
			}
			b.WriteString("\tmembar\n\tstx %g4, [%o0]\n")
		case bench.SendCSB:
			fmt.Fprintf(&b, "R%d:\tset %d, %%l4\n", s, words)
			for w := range words {
				fmt.Fprintf(&b, "\tstd %%f0, [%%o1+%d]\n", 8*w)
			}
			fmt.Fprintf(&b, "\tswap [%%o1], %%l4\n\tcmp %%l4, %d\n\tbnz R%d\n", words, s)
			b.WriteString("\tmembar\n\tstx %g4, [%o0]\n")
		case bench.SendDMA:
			for w := range words {
				fmt.Fprintf(&b, "\tstd %%f0, [%%o2+%d]\n", 8*w)
			}
			b.WriteString("\tmembar\n\tor %g4, %o2, %g4\n\tstx %g4, [%o0+8]\n")
		}
		fmt.Fprintf(&b, "W%d:\tldx [%%o0+0x28], %%g1\n\ttst %%g1\n\tbz E%d\n", s, s)
		fmt.Fprintf(&b, "\tldx [%%o0+0x20], %%g2\n\tadd %%g5, %%g2, %%g5\n\tba W%d\nE%d:\n", s, s)
	}
	b.WriteString("\tset 0x20000, %o3\n\tstx %g5, [%o3]\n\tmembar\n\thalt\n")
	return b.String()
}

// randomCluster builds seed's zero- or one-latency cluster on c reset (a
// new one when c is nil): two to four nodes in a random topology, bus
// ratio, link bandwidth, RX staging and NIC wire speed, each node running
// a randomGuest.
func randomCluster(t *testing.T, c *cluster.Cluster, seed uint64) *cluster.Cluster {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x1ead))
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 2 + rng.IntN(3)
	cfg.Topology = cluster.Topology(rng.IntN(2)) // mesh or ring: every node has a default route
	cfg.WireLatency = uint64(rng.IntN(2))
	cfg.Bandwidth = uint64(rng.IntN(3))
	cfg.RxEnqueueDelay = uint64(rng.IntN(2) * rng.IntN(8))
	cfg.Node.Ratio = []int{1, 2, 3, 6}[rng.IntN(4)]
	cfg.NIC.WireCyclesPerByte = rng.IntN(2)
	c = newOrReset(t, c, cfg)
	for _, n := range c.Nodes() {
		method := bench.SendMethod(rng.IntN(3))
		n.MapIO(method == bench.SendCSB)
		n.M.MapRange(0x200000, 1<<16, mem.KindCached)
		n.M.MapRange(0x20000, 1<<12, mem.KindCached)
		p, err := n.M.LoadSource(n.Name()+".s", randomGuest(rng, method, 2+rng.IntN(5)))
		if err != nil {
			t.Fatal(err)
		}
		n.M.WarmProgram(p)
	}
	return c
}

// randomSeeds is how many random clusters TestParallelTransmitLead and
// TestTransmitLeadWindowsExact run.
const randomSeeds = 40

// stepTransmitLead runs c one cycle a time until it settles and fails if
// a node pumps a packet before the transmit lead computed at any barrier
// since its previous pump. It returns the packets pumped.
func stepTransmitLead(t *testing.T, c *cluster.Cluster) int {
	t.Helper()
	bound := make([]uint64, c.NumNodes()) // the largest lead since the node's last pump
	sent := make([]int, c.NumNodes())
	total := 0
	for !c.Settled() {
		if c.Cycle() >= 1_000_000 {
			t.Fatalf("not settled after %d cycles", c.Cycle())
		}
		for i, lead := range c.TransmitLeads() {
			if lead != math.MaxUint64 {
				bound[i] = max(bound[i], lead)
			}
		}
		if err := c.RunFor(1, false); err != nil {
			t.Fatal(err)
		}
		for i, n := range c.Nodes() {
			if k := len(n.NIC.Packets()); k > sent[i] {
				if c.Cycle() < bound[i] {
					t.Fatalf("%s pumped a packet at cycle %d, before its transmit lead %d", n.Name(), c.Cycle(), bound[i])
				}
				total += k - sent[i]
				sent[i], bound[i] = k, 0
			}
		}
	}
	return total
}

// TestParallelTransmitLead checks the bound zero-latency windows end at,
// on the lockstep golden's cases and on random zero- and one-latency
// clusters: stepped one cycle at a time, so that every cycle is a
// barrier, no node pumps a packet before the transmit lead computed at
// any barrier since its previous pump. A lead one cycle too long
// delivers a packet one cycle late, which no guest of the golden sees,
// since every node's bus ticks in the same phase there; this check does.
func TestParallelTransmitLead(t *testing.T) {
	for _, lc := range lockstepCases() {
		if n := stepTransmitLead(t, lc.build(t, nil)); n == 0 {
			t.Errorf("%s: no packet pumped", lc.name)
		}
	}
	var c *cluster.Cluster
	for seed := range uint64(randomSeeds) {
		c = randomCluster(t, c, seed)
		if n := stepTransmitLead(t, c); n == 0 {
			t.Errorf("seed %d: no packet pumped", seed)
		}
	}
}

// leadRun runs seed's random cluster, traced and recorded every 97
// cycles, on c reset, and returns it with its recording read back. With
// oneCycle the watchdog is armed, with a window no run reaches, which
// keeps the windows at one cycle.
func leadRun(t *testing.T, c *cluster.Cluster, seed uint64, oneCycle bool) (*cluster.Cluster, *rec.Recording) {
	t.Helper()
	c = randomCluster(t, c, seed)
	if oneCycle {
		if err := c.SetWatchdog(1<<40, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AttachTrace(); err != nil {
		t.Fatal(err)
	}
	r, err := rec.New(rec.Config{Every: 97})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.SetWriter(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.AttachRecorder(r); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(1_000_000, false); err != nil {
		t.Fatal(err)
	}
	rc, err := rec.Read(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Steps count the calls that advanced a machine, which longer windows
	// save; every other series must match.
	for i, name := range rc.CtrNames {
		if strings.HasSuffix(name, "sim/effort/steps") {
			for w := range rc.Windows {
				rc.Windows[w].CtrEnd[i], rc.Windows[w].CtrDelta[i] = 0, 0
			}
		}
	}
	return c, rc
}

// nodeResults renders what each node of c computed and how much work its
// machine did.
func nodeResults(c *cluster.Cluster) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d halt %d\n", c.Cycle(), c.HaltCycle())
	for _, n := range c.Nodes() {
		st := n.M.Stats()
		fmt.Fprintf(&b, "%s halt=%d full=%d sent=%d rx=%d sum=%#x cpu=%+v bus=%+v\n",
			n.Name(), n.HaltCycle(), n.M.Effort().FullTicks, len(n.NIC.Packets()),
			n.NIC.RxPops(), n.M.RAM.ReadUint(0x20000, 8), st.CPU, st.Bus)
	}
	return b.String()
}

// TestTransmitLeadWindowsExact: on random zero- and one-latency clusters,
// Run's windows, which end at the transmit lead, give what one-cycle
// windows give: the same cycle and halt cycles, node results, full ticks
// and CPU and bus statistics, and the same recording, window bounds,
// series, histograms and journeys, steps aside.
func TestTransmitLeadWindowsExact(t *testing.T) {
	var a, b *cluster.Cluster
	for seed := range uint64(randomSeeds) {
		var ra, rb *rec.Recording
		a, ra = leadRun(t, a, seed, false)
		b, rb = leadRun(t, b, seed, true)
		if got, want := nodeResults(a), nodeResults(b); got != want {
			t.Fatalf("seed %d: lead windows\n%sone-cycle windows\n%s", seed, got, want)
		}
		if len(ra.Windows) < 2 {
			t.Fatalf("seed %d: %d recorder windows, want several", seed, len(ra.Windows))
		}
		if !reflect.DeepEqual(ra, rb) {
			for i := range min(len(ra.Windows), len(rb.Windows)) {
				if !reflect.DeepEqual(ra.Windows[i], rb.Windows[i]) {
					t.Fatalf("seed %d: recorder window %d:\n%+v\none-cycle windows:\n%+v", seed, i, ra.Windows[i], rb.Windows[i])
				}
			}
			t.Fatalf("seed %d: recordings differ", seed)
		}
	}
}
