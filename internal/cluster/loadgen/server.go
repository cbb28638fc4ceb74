// Server guest codegen: the SV9L program a server node runs against the
// load generator. The server loops forever — poll the NIC RX count until
// a full request is queued, pop it (destructive uncached loads), steer
// the reply back to the requesting client via RegTxDest (the client index
// rides in the request header's top 16 bits), emit the reply payload with
// the selected send method, push the transmit descriptor, and wait for
// the send counter to advance before the next request. The reply paths
// mirror internal/bench's ping-pong blocks — plain uncached stores, the
// CSB swap-retry protocol (§3.2), or a DMA descriptor — so serving curves
// are directly comparable to the X8 microbenchmark.
package loadgen

import (
	"fmt"
	"strings"

	"csbsim/internal/bench"
	"csbsim/internal/cluster"
	"csbsim/internal/device"
	"csbsim/internal/mem"
)

// DMAStageBase is where the DMA server guest stages reply payloads. Map
// it *uncached* (see ServerMapIO): the NIC's DMA engine reads main memory
// over the bus, so a cached staging buffer would hand it stale lines.
// Linting the generated program passes [DMAStageBase, DMAStageBase+
// DMAStageSize) as an asm.LintConfig.IORanges window for the same reason.
const DMAStageBase = 0x200000

// DMAStageSize is the extent of the staging window ServerMapIO maps.
const DMAStageSize = 1 << 16

// ServerProgram returns the server guest for the given reply method and
// request/reply size in words (1..8; the CSB path requires the full
// 8-word line, its conditional-flush batch unit).
func ServerProgram(method bench.SendMethod, words int) (string, error) {
	if words < 1 || words > 8 {
		return "", fmt.Errorf("loadgen: %d-word replies unsupported (want 1..8)", words)
	}
	if method == bench.SendCSB && words != 8 {
		return "", fmt.Errorf("loadgen: CSB replies need the full 8-word line, got %d words", words)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\tset %#x, %%o0\n", device.Base)
	fmt.Fprintf(&b, "\tset %#x, %%o1\n", device.Base+device.PacketBufBase)
	// Filler payload word for the non-header reply words.
	b.WriteString("\tset 0xAB, %g1\n\tmovr2f %g1, %f0\n")
	// Transmit descriptor: offset 0, length words*8.
	fmt.Fprintf(&b, "\tset %d, %%g4\n\tsll %%g4, 48, %%g4\n", words*8)
	if method == bench.SendDMA {
		// Stage the static filler words once; the header word is rewritten
		// per reply. %g5 holds the ready-made DMA descriptor.
		fmt.Fprintf(&b, "\tset %#x, %%o2\n", DMAStageBase)
		for w := 1; w < words; w++ {
			fmt.Fprintf(&b, "\tstd %%f0, [%%o2+%d]\n", w*8)
		}
		b.WriteString("\tmembar\n")
		fmt.Fprintf(&b, "\tset %#x, %%g5\n\tor %%g4, %%g5, %%g5\n", DMAStageBase)
	}
	b.WriteString("\tclr %l0\n") // sent-packet count mirror
	b.WriteString("loop:\n")
	// Wait for one complete request. The poll loads look reordered past
	// the previous reply's device stores to the linter, but the uncached
	// buffer is strongly ordered — a load issues only after all older
	// stores — and the CSB path's combining line is swap-flushed before
	// any poll, so no membar is needed (and adding one would slow the
	// serving loop the experiments measure).
	fmt.Fprintf(&b, "wait:\tldx [%%o0+%#x], %%g1\t! lint:ignore missing-membar RX poll issues FIFO behind older uncached stores (uncbuf strong ordering)\n", device.RegRxCount)
	fmt.Fprintf(&b, "\tcmp %%g1, %d\n\tbl wait\n", words)
	// Pop the header, drain the request body.
	fmt.Fprintf(&b, "\tldx [%%o0+%#x], %%g3\t! lint:ignore missing-membar destructive RX pop ordered behind older stores by the uncached FIFO\n", device.RegRxPop)
	if words > 1 {
		fmt.Fprintf(&b, "\tset %d, %%g2\n", words-1)
		fmt.Fprintf(&b, "drain:\tldx [%%o0+%#x], %%g1\t! lint:ignore missing-membar destructive RX pop ordered behind older stores by the uncached FIFO\n", device.RegRxPop)
		b.WriteString("\tsubcc %g2, 1, %g2\n\tbnz drain\n")
	}
	// Steer the reply to the requesting client (header bits 63:48).
	b.WriteString("\tsrl %g3, 48, %g2\n")
	fmt.Fprintf(&b, "\tstx %%g2, [%%o0+%#x]\n", device.RegTxDest)
	// Emit the reply: header echo + filler, via the selected path.
	switch method {
	case bench.SendCSB:
		b.WriteString("RETRY:\tset 8, %l4\n")
		b.WriteString("\tstx %g3, [%o1]\n")
		for w := 1; w < words; w++ {
			fmt.Fprintf(&b, "\tstd %%f0, [%%o1+%d]\n", w*8)
		}
		b.WriteString("\tswap [%o1], %l4\n")
		b.WriteString("\tcmp %l4, 8\n\tbnz RETRY\n")
		b.WriteString("\tstx %g4, [%o0]\n")
	case bench.SendDMA:
		b.WriteString("\tstx %g3, [%o2]\n\tmembar\n")
		fmt.Fprintf(&b, "\tstx %%g5, [%%o0+%#x]\n", device.RegDMA)
	default: // plain uncached PIO
		b.WriteString("\tstx %g3, [%o1]\n")
		for w := 1; w < words; w++ {
			fmt.Fprintf(&b, "\tstd %%f0, [%%o1+%d]\n", w*8)
		}
		b.WriteString("\tmembar\n")
		b.WriteString("\tstx %g4, [%o0]\n")
	}
	// Wait for the packet to leave before accepting the next request:
	// keeps the TX FIFO at depth one and, for DMA, the engine idle when
	// the next descriptor lands (a busy DMA engine drops descriptors).
	b.WriteString("\tinc %l0\n")
	fmt.Fprintf(&b, "sent:\tldx [%%o0+%#x], %%g1\t! lint:ignore missing-membar TX status poll; the descriptor store is older in the uncached FIFO, CSB line already swap-flushed\n", device.RegStatus)
	b.WriteString("\tsrl %g1, 32, %g1\n")
	b.WriteString("\tcmp %g1, %l0\n\tbl sent\n")
	b.WriteString("\tba loop\n")
	return b.String(), nil
}

// ServerMapIO maps the NIC (packet buffer combining for the CSB method)
// and, for DMA, the uncached staging buffer into server node n's address
// space.
func ServerMapIO(n *cluster.Node, method bench.SendMethod) {
	n.M.MapNIC(method == bench.SendCSB)
	if method == bench.SendDMA {
		n.M.MapRange(DMAStageBase, DMAStageSize, mem.KindUncached)
	}
}
