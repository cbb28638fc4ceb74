package device

import (
	"errors"
	"testing"
)

// window is a one-shot fault hook: it fires once with length n, then
// stays quiet.
func window(n int) func() int {
	fired := false
	return func() int {
		if fired {
			return 0
		}
		fired = true
		return n
	}
}

func TestBackpressureWindowDropsAndSignals(t *testing.T) {
	n, b, _ := newRig(t, DefaultConfig())
	n.WriteTarget(base+PacketBufBase, []byte{1, 2, 3, 4})
	n.SetFaultHooks(nil, window(10))
	step(n, b, 1) // the hook opens the window on this tick

	// While the window is open the status register advertises a full
	// FIFO even though the FIFO is empty...
	st := leUint(readNIC(n, base+RegStatus, 8))
	if st&2 == 0 {
		t.Fatal("full bit clear during backpressure window")
	}
	// ...and a push that ignores it is dropped, visible in the status
	// drop counter (bits [31:16]) so software can detect and retry.
	before := (st >> 16) & 0xffff
	n.WriteTarget(base+RegTxFIFO, desc(0, 4))
	st = leUint(readNIC(n, base+RegStatus, 8))
	after := (st >> 16) & 0xffff
	if after != before+1 {
		t.Fatalf("drop counter %d -> %d, want +1", before, after)
	}
	if n.Dropped() != 1 {
		t.Fatalf("Dropped() = %d, want 1", n.Dropped())
	}

	// After the window passes, the retried push is accepted and the
	// packet goes out.
	step(n, b, 11)
	if st := leUint(readNIC(n, base+RegStatus, 8)); st&2 != 0 {
		t.Fatal("full bit still set after window closed")
	}
	n.WriteTarget(base+RegTxFIFO, desc(0, 4))
	step(n, b, 10)
	if len(n.Packets()) != 1 {
		t.Fatalf("packets = %d, want 1", len(n.Packets()))
	}
}

func TestFIFOOverflowUnderBackpressureDeliversQueuedInterrupts(t *testing.T) {
	// A slow wire so queued descriptors stay queued while the window
	// opens; interrupts for already-accepted packets must still arrive.
	n, b, _ := newRig(t, Config{FIFODepth: 2, WireCyclesPerByte: 5, DMABurst: 64})
	ints := 0
	n.Interrupt = func() { ints++ }
	n.WriteTarget(base+PacketBufBase, []byte{9, 9, 9, 9})

	// Fill the FIFO, tick once so the head moves to the transmitter,
	// refill the freed slot, then overflow.
	n.WriteTarget(base+RegTxFIFO, desc(0, 4))
	n.WriteTarget(base+RegTxFIFO, desc(0, 4))
	step(n, b, 1)
	n.WriteTarget(base+RegTxFIFO, desc(0, 4))
	n.WriteTarget(base+RegTxFIFO, desc(0, 4)) // FIFO full again: dropped
	if n.Dropped() != 1 {
		t.Fatalf("Dropped() = %d after overflow, want 1", n.Dropped())
	}

	// Open a backpressure window mid-stream: further pushes drop, but
	// the three accepted packets transmit and interrupt as usual.
	n.SetFaultHooks(nil, window(20))
	step(n, b, 1)
	n.WriteTarget(base+RegTxFIFO, desc(0, 4))
	if n.Dropped() != 2 {
		t.Fatalf("Dropped() = %d during window, want 2", n.Dropped())
	}
	step(n, b, 200)
	if len(n.Packets()) != 3 {
		t.Fatalf("packets = %d, want 3", len(n.Packets()))
	}
	if ints != 3 {
		t.Fatalf("interrupts = %d, want 3", ints)
	}
	if !n.Idle() {
		t.Fatal("NIC not idle")
	}
}

func TestInjectedStallDelaysSendButNotRegisters(t *testing.T) {
	n, b, _ := newRig(t, DefaultConfig())
	ints := 0
	n.Interrupt = func() { ints++ }
	n.WriteTarget(base+PacketBufBase, []byte{1, 2, 3, 4})
	n.SetFaultHooks(window(50), nil)
	n.WriteTarget(base+RegTxFIFO, desc(0, 4))

	// The device is frozen for 50 bus cycles: nothing transmits, but
	// status polls still complete (software keeps spinning safely).
	step(n, b, 40)
	if len(n.Packets()) != 0 {
		t.Fatal("packet sent during injected stall")
	}
	if st := leUint(readNIC(n, base+RegStatus, 8)); st>>32 != 0 {
		t.Fatal("status claims packets sent during stall")
	}
	// Once the burst ends the packet goes out and exactly one interrupt
	// is delivered.
	step(n, b, 20)
	if len(n.Packets()) != 1 || ints != 1 {
		t.Fatalf("packets=%d interrupts=%d after stall, want 1/1", len(n.Packets()), ints)
	}
}

func TestBadDescriptorRecordsAddrErrorInsteadOfPanic(t *testing.T) {
	n, b, _ := newRig(t, DefaultConfig())
	// A descriptor pointing past the packet buffer used to panic the
	// simulator when transmission sliced packetBuf.
	n.WriteTarget(base+RegTxFIFO, desc(0x8000, 64))
	step(n, b, 20)

	var ae *AddrError
	if err := n.Err(); !errors.As(err, &ae) {
		t.Fatalf("Err() = %v, want *AddrError", err)
	} else if ae.Op != "tx-descriptor" || ae.Addr != 0x8000 {
		t.Fatalf("AddrError = %+v", ae)
	}
	if n.BadDescs() != 1 {
		t.Fatalf("BadDescs() = %d, want 1", n.BadDescs())
	}
	if len(n.Packets()) != 0 {
		t.Fatal("bogus descriptor transmitted")
	}
	// Only the first error is retained; the device keeps working.
	n.WriteTarget(base+RegTxFIFO, desc(0, PacketBufSize+1))
	if n.BadDescs() != 2 {
		t.Fatal("second bad descriptor not counted")
	}
	n.WriteTarget(base+PacketBufBase, []byte{5, 6, 7, 8})
	n.WriteTarget(base+RegTxFIFO, desc(0, 4))
	step(n, b, 10)
	if len(n.Packets()) != 1 {
		t.Fatal("NIC wedged after bad descriptor")
	}
}

func TestBadDMARecordsAddrError(t *testing.T) {
	n, b, _ := newRig(t, DefaultConfig())
	// A DMA length larger than the packet buffer would overrun it.
	n.WriteTarget(base+RegDMA, desc(0x1_0000, PacketBufSize+64))
	step(n, b, 100)
	var ae *AddrError
	if err := n.Err(); !errors.As(err, &ae) {
		t.Fatalf("Err() = %v, want *AddrError", err)
	} else if ae.Op != "dma-transfer" {
		t.Fatalf("AddrError = %+v", ae)
	}
	if !n.Idle() {
		t.Fatal("refused DMA left the engine busy")
	}
}

func TestStallHookNotConsultedWhileStalled(t *testing.T) {
	n, b, _ := newRig(t, DefaultConfig())
	calls := 0
	n.SetFaultHooks(func() int { calls++; return 5 }, nil)
	step(n, b, 11)
	// Tick 1 opens a 5-cycle burst (1 call), ticks 2-5 are frozen, tick
	// 6 opens another, and so on: ⌈11/5⌉ = 3 calls, not 11.
	if calls != 3 {
		t.Fatalf("stall hook consulted %d times over 11 ticks, want 3", calls)
	}
}
