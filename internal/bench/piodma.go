package bench

import (
	"fmt"
	"strings"

	"csbsim/internal/asm"
	"csbsim/internal/device"
	"csbsim/internal/mem"
	"csbsim/internal/sim"
)

// SendMethod selects how a message reaches the NIC (extension X2).
type SendMethod int

const (
	// SendPIO writes the payload to the packet buffer with plain
	// uncached stores, then pushes a descriptor.
	SendPIO SendMethod = iota
	// SendCSB writes the payload through the conditional store buffer,
	// one atomic line burst per cache line, then pushes a descriptor.
	SendCSB
	// SendDMA writes the payload to cached memory and starts the NIC's
	// DMA engine with a single descriptor store.
	SendDMA
)

func (s SendMethod) String() string {
	switch s {
	case SendPIO:
		return "PIO-uncached"
	case SendCSB:
		return "PIO-CSB"
	case SendDMA:
		return "DMA"
	}
	return "?"
}

// messageSendProgram emits a program that delivers one msgBytes-long
// message to the NIC using the given method and halts immediately after
// initiating the send.
func messageSendProgram(method SendMethod, msgBytes, lineSize int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\tset %#x, %%o0\n", device.Base)                      // registers
	fmt.Fprintf(&b, "\tset %#x, %%o1\n", device.Base+device.PacketBufBase) // packet buffer
	b.WriteString("\tmov 99, %g1\n\tmovr2f %g1, %f0\n")

	dwords := msgBytes / 8
	switch method {
	case SendPIO:
		for i := 0; i < dwords; i++ {
			fmt.Fprintf(&b, "\tstd %%f0, [%%o1+%d]\n", i*8)
		}
		b.WriteString("\tmembar\n") // stores must reach the device before the descriptor
	case SendCSB:
		off := 0
		line := 0
		for off < dwords {
			n := lineSize / 8
			if dwords-off < n {
				n = dwords - off
			}
			fmt.Fprintf(&b, "RETRY%d:\n\tset %d, %%l4\n", line, n)
			for i := 0; i < n; i++ {
				fmt.Fprintf(&b, "\tstd %%f0, [%%o1+%d]\n", (off+i)*8)
			}
			fmt.Fprintf(&b, "\tswap [%%o1+%d], %%l4\n", off*8)
			fmt.Fprintf(&b, "\tcmp %%l4, %d\n\tbnz RETRY%d\n", n, line)
			off += n
			line++
		}
		b.WriteString("\tmembar\n") // payload must reach the device before the descriptor
	case SendDMA:
		// Prepare the payload in cached memory.
		b.WriteString("\tset 0x200000, %o2\n")
		for i := 0; i < dwords; i++ {
			fmt.Fprintf(&b, "\tstd %%f0, [%%o2+%d]\n", i*8)
		}
		b.WriteString("\tmembar\n")
		// One store starts the whole transfer: address | length<<48.
		fmt.Fprintf(&b, "\tset %d, %%g4\n\tsll %%g4, 48, %%g4\n", msgBytes)
		b.WriteString("\tset 0x200000, %g5\n\tor %g4, %g5, %g4\n")
		fmt.Fprintf(&b, "\tstx %%g4, [%%o0+%d]\n", device.RegDMA)
		b.WriteString("\thalt\n")
		return b.String()
	}
	// Push the transmit descriptor: packet-buffer offset 0, length<<48.
	fmt.Fprintf(&b, "\tset %d, %%g4\n\tsll %%g4, 48, %%g4\n", msgBytes)
	fmt.Fprintf(&b, "\tstx %%g4, [%%o0+%d]\n", device.RegTxFIFO)
	b.WriteString("\thalt\n")
	return b.String()
}

// MeasureMessageSend returns two costs of delivering one message: wire is
// the CPU-cycle latency until the NIC has the complete message on the
// wire; overhead is the CPU cycles until the processor is free again (for
// DMA that is right after the descriptor store — the transfer itself
// proceeds in the background).
func MeasureMessageSend(p MachineParams, method SendMethod, msgBytes int) (wire, overhead float64, err error) {
	prog, err := assemble("send.s", messageSendProgram(method, msgBytes, p.LineSize))
	if err != nil {
		return 0, 0, err
	}
	return messageSend(nil, p, method, msgBytes, prog, true)
}

// messageSend is MeasureMessageSend on w's machine running prog, the
// send program of method and msgBytes, which it only reads. With toWire
// false the run stops at the halt and wire reads 0.
func messageSend(w *worker, p MachineParams, method SendMethod, msgBytes int, prog *asm.Program, toWire bool) (wire, overhead float64, err error) {
	cfg := sim.DefaultConfig()
	cfg.Ratio = p.Ratio
	cfg.Bus = p.Bus
	nicCfg := device.DefaultConfig()
	cfg.NIC = &nicCfg
	m, err := w.machine(cfg)
	if err != nil {
		return 0, 0, err
	}
	nic := m.NIC()
	// Register page is plain uncached; the packet buffer page is
	// combining for CSB sends and uncached otherwise.
	m.MapNIC(method == SendCSB)
	// Cached staging buffer for the DMA variant, warm (a reused send
	// buffer, as in real messaging layers).
	m.MapRange(0x200000, 1<<16, mem.KindCached)
	m.WarmData(0x200000, uint64(msgBytes))

	if err := m.Load(prog); err != nil {
		return 0, 0, err
	}
	m.WarmProgram(prog)

	var cpuDone, wireDone uint64
	for i := 0; i < 50_000_000; i++ {
		if cpuDone == 0 && m.CPU.Halted() {
			if err := m.CPU.Err(); err != nil {
				return 0, 0, err
			}
			cpuDone = m.Cycle()
		}
		if wireDone == 0 && len(nic.Packets()) > 0 {
			wireDone = m.Cycle()
		}
		if cpuDone != 0 && (wireDone != 0 || !toWire) {
			return float64(wireDone), float64(cpuDone), nil
		}
		m.Tick()
	}
	return 0, 0, fmt.Errorf("bench: message never sent (%s, %dB)", method, msgBytes)
}

// ExtensionPIOvsDMA regenerates the §5 qualitative claim quantitatively.
// The headline metric is per-message CPU overhead: DMA's is flat (one
// descriptor store), plain PIO's grows steeply, CSB PIO's grows gently —
// so the CSB pushes the PIO/DMA break-even point toward larger messages.
func ExtensionPIOvsDMA() (Result, error) {
	return pioVsDMA(false)
}

// ExtensionPIOvsDMALatency is the companion wire-latency view of the same
// sends (figure id X2L).
func ExtensionPIOvsDMALatency() (Result, error) {
	return pioVsDMA(true)
}

// pioVsDMA sweeps one send per (method, message size): X2, the CPU
// overhead, whose points stop at the halt, or with toWire X2L, the wire
// latency, whose points run on until the packet is on the wire (never
// before the halt). The figure's programs are assembled once.
func pioVsDMA(toWire bool) (Result, error) {
	sizes := []int{16, 32, 64, 128, 256, 512, 1024}
	r := Result{
		ID: "X2", Title: "per-message CPU overhead: PIO vs CSB-PIO vs DMA",
		XLabel: "message size", YLabel: "CPU cycles until processor free",
		Notes: "NIC with on-board packet buffer; DMA reads memory in 64B bursts",
	}
	if toWire {
		r.ID, r.Title, r.YLabel = "X2L", "message wire latency: PIO vs CSB-PIO vs DMA", "CPU cycles to wire"
	}
	for _, s := range sizes {
		r.X = append(r.X, fmt.Sprintf("%dB", s))
	}
	methods := []SendMethod{SendPIO, SendCSB, SendDMA}
	p := DefaultParams()
	var srcs []source
	for _, method := range methods {
		for _, size := range sizes {
			srcs = append(srcs, source{"send.s", messageSendProgram(method, size, p.LineSize)})
		}
	}
	progs, err := assembleEach(srcs)
	if err != nil {
		return r, err
	}
	ys, err := sweepSeries(len(methods), len(sizes), func(w *worker, si, xi int) (float64, error) {
		wire, overhead, err := messageSend(w, p, methods[si], sizes[xi], progs[si*len(sizes)+xi], toWire)
		if toWire {
			return wire, err
		}
		return overhead, err
	})
	if err != nil {
		return r, err
	}
	for si, method := range methods {
		r.Series = append(r.Series, Series{Name: method.String(), Y: ys[si]})
	}
	return r, nil
}
