package bench

import (
	"fmt"
	"strings"

	"csbsim/internal/asm"
	"csbsim/internal/cluster"
	"csbsim/internal/device"
	"csbsim/internal/mem"
)

// Experiment X8: ping-pong round-trip latency between two simulated nodes
// (the paper's §7 "realistic applications" next step, in the NOW/Memory
// Channel setting of §2). One 64-byte message bounces between the nodes
// `rounds` times; the send path is plain uncached PIO, CSB PIO, or DMA.
// The per-round gap between methods is pure software/bus overhead and
// stays constant as the wire latency grows — the Martin et al. point that
// applications are more sensitive to overhead than latency.

// sendBlock emits code sending one 64-byte message from the packet buffer
// slot at %o1 (payload in %f0) via the given method. Labels are suffixed
// to stay unique across expansions.
func sendBlock(b *strings.Builder, method SendMethod, tag string) {
	switch method {
	case SendPIO:
		for i := 0; i < 8; i++ {
			fmt.Fprintf(b, "\tstd %%f0, [%%o1+%d]\n", i*8)
		}
		b.WriteString("\tmembar\n")
	case SendCSB:
		fmt.Fprintf(b, "RETRY%s:\n\tset 8, %%l4\n", tag)
		for i := 0; i < 8; i++ {
			fmt.Fprintf(b, "\tstd %%f0, [%%o1+%d]\n", i*8)
		}
		b.WriteString("\tswap [%o1], %l4\n")
		fmt.Fprintf(b, "\tcmp %%l4, 8\n\tbnz RETRY%s\n", tag)
	case SendDMA:
		// Payload staged at 0x200000 by the prologue; one store fires it.
		b.WriteString("\tstx %g5, [%o0+8]\n") // RegDMA descriptor in %g5
		return
	}
	// Push the transmit descriptor (offset 0, length 64) prepared in %g4.
	b.WriteString("\tstx %g4, [%o0]\n")
}

// recvBlock emits code that waits for 8 RX words and drains them.
func recvBlock(b *strings.Builder, tag string) {
	fmt.Fprintf(b, "WAIT%s:\n", tag)
	fmt.Fprintf(b, "\tldx [%%o0+%d], %%g1\n", device.RegRxCount)
	fmt.Fprintf(b, "\tcmp %%g1, 8\n\tbl WAIT%s\n", tag)
	b.WriteString("\tmov 8, %g2\n")
	fmt.Fprintf(b, "DRAIN%s:\n", tag)
	fmt.Fprintf(b, "\tldx [%%o0+%d], %%g1\n", device.RegRxPop)
	fmt.Fprintf(b, "\tsubcc %%g2, 1, %%g2\n\tbnz DRAIN%s\n", tag)
}

func pingPongProlog(b *strings.Builder, method SendMethod) {
	fmt.Fprintf(b, "\tset %#x, %%o0\n", cluster.NICBase)
	fmt.Fprintf(b, "\tset %#x, %%o1\n", cluster.NICBase+device.PacketBufBase)
	b.WriteString("\tset 0xAB, %g1\n\tmovr2f %g1, %f0\n")
	// Descriptor for a 64-byte send from packet-buffer offset 0.
	b.WriteString("\tset 64, %g4\n\tsll %g4, 48, %g4\n")
	if method == SendDMA {
		// Stage the payload once and precompute the DMA descriptor.
		b.WriteString("\tset 0x200000, %o2\n")
		for i := 0; i < 8; i++ {
			fmt.Fprintf(b, "\tstd %%f0, [%%o2+%d]\n", i*8)
		}
		b.WriteString("\tmembar\n")
		b.WriteString("\tset 0x200000, %g5\n\tor %g4, %g5, %g5\n")
	}
}

// pingProgram sends first, then waits for the echo, `rounds` times.
func pingProgram(method SendMethod, rounds int) string {
	var b strings.Builder
	pingPongProlog(&b, method)
	fmt.Fprintf(&b, "\tset %d, %%g7\n", rounds)
	b.WriteString("round:\n")
	sendBlock(&b, method, "P")
	recvBlock(&b, "P")
	b.WriteString("\tsubcc %g7, 1, %g7\n\tbnz round\n\thalt\n")
	return b.String()
}

// pongProgram echoes every received message, `rounds` times.
func pongProgram(method SendMethod, rounds int) string {
	var b strings.Builder
	pingPongProlog(&b, method)
	fmt.Fprintf(&b, "\tset %d, %%g7\n", rounds)
	b.WriteString("round:\n")
	recvBlock(&b, "Q")
	sendBlock(&b, method, "Q")
	b.WriteString("\tsubcc %g7, 1, %g7\n\tbnz round\n\thalt\n")
	return b.String()
}

// PingPongPrograms returns the two node programs of the round-trip
// workload, for callers that build their own cluster around them
// (csbcluster -send, BenchmarkObservedPingPong).
func PingPongPrograms(method SendMethod, rounds int) (ping, pong string) {
	return pingProgram(method, rounds), pongProgram(method, rounds)
}

// MeasurePingPong returns the average round-trip time in CPU cycles for
// 64-byte messages bounced between two nodes: the cycle the last node
// halts, over the number of rounds.
func MeasurePingPong(method SendMethod, rounds int, wireLatency uint64) (float64, error) {
	progs, err := assembleEach(pingPongSources(method, rounds))
	if err != nil {
		return 0, err
	}
	return pingPong(method, progs, rounds, wireLatency)
}

// pingPongSources are the ping and pong node programs.
func pingPongSources(method SendMethod, rounds int) []source {
	ping, pong := PingPongPrograms(method, rounds)
	return []source{{"ping.s", ping}, {"pong.s", pong}}
}

// pingPong is MeasurePingPong on the assembled pingPongSources, which it
// only reads: node i runs progs[i].
func pingPong(method SendMethod, progs []*asm.Program, rounds int, wireLatency uint64) (float64, error) {
	cfg := cluster.DefaultConfig()
	cfg.WireLatency = wireLatency
	c, err := cluster.New(cfg)
	if err != nil {
		return 0, err
	}
	for i, p := range progs[:2] {
		n := c.Node(i)
		n.MapIO(method == SendCSB)
		n.M.MapRange(0x200000, 1<<16, mem.KindCached)
		if err := n.M.Load(p); err != nil {
			return 0, err
		}
		n.M.WarmProgram(p)
	}
	if err := c.Run(100_000_000, false); err != nil {
		return 0, err
	}
	return float64(c.HaltCycle()) / float64(rounds), nil
}

// ExtensionPingPong regenerates X8: round-trip time vs wire latency for
// the three send methods. The vertical gaps are overhead; they persist
// unchanged as latency grows.
func ExtensionPingPong() (Result, error) {
	latencies := []uint64{0, 60, 120, 240, 480}
	const rounds = 30
	r := Result{
		ID:     "X8",
		Title:  "two-node ping-pong round trip, 64B messages",
		XLabel: "wire latency (CPU cycles each way)", YLabel: "round-trip CPU cycles",
		Notes: "cluster of two paper-default nodes; receive by polling the NIC RX queue",
	}
	for _, l := range latencies {
		r.X = append(r.X, fmt.Sprintf("%d", l))
	}
	methods := []SendMethod{SendPIO, SendCSB, SendDMA}
	// progs[2*si:2*si+2] are method si's ping and pong, shared by every
	// wire latency.
	var srcs []source
	for _, method := range methods {
		srcs = append(srcs, pingPongSources(method, rounds)...)
	}
	progs, err := assembleEach(srcs)
	if err != nil {
		return r, err
	}
	ys, err := sweepSeries(len(methods), len(latencies), func(_ *worker, si, xi int) (float64, error) {
		rt, err := pingPong(methods[si], progs[2*si:2*si+2], rounds, latencies[xi])
		if err != nil {
			return 0, fmt.Errorf("X8 %s wire=%d: %w", methods[si], latencies[xi], err)
		}
		return rt, nil
	})
	if err != nil {
		return r, err
	}
	for si, method := range methods {
		r.Series = append(r.Series, Series{Name: method.String(), Y: ys[si]})
	}
	return r, nil
}
