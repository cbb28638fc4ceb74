package device

import (
	"fmt"
	"testing"
)

// nicState renders every field of n but the DMA completion callback,
// which each NIC binds to itself, and the packet slab's storage (its
// rewound position, slabUsed, is rendered); a function field renders as
// <nil> when unset.
func nicState(n *NIC) string {
	c := *n
	c.dmaTxn.Done = nil
	c.slab = nil
	return fmt.Sprintf("%+v", c)
}

// sendSome drives n, on a rig of its own, through a steered PIO send, a
// DMA send and a traced delivery drained by a register read, with an
// interrupt handler and fault hooks installed, and returns what it sent.
func sendSome(t *testing.T, n *NIC) string {
	t.Helper()
	b, ram := rigFor(t, n)
	ram.Write(0x1_0000, []byte("dma payload, long enough for several bursts"))
	n.SetRxDrainHook(func(uint64) {})
	n.Interrupt = func() {}
	n.WriteTarget(Base+PacketBufBase, []byte("pio payload"))
	n.WriteTarget(Base+RegTxDest, desc(2, 0))
	n.WriteTarget(Base+RegTxFIFO, desc(0, 11))
	n.WriteTarget(Base+RegDMA, desc(0x1_0000, 43))
	n.DeliverWords(7, []uint64{1, 2, 3})
	readNIC(n, Base+RegRxPop, 8)
	step(n, b, 200)
	n.SetFaultHooks(func() int { return 0 }, func() int { return 0 })
	out := ""
	for _, p := range n.Packets() {
		out += fmt.Sprintf("%q dma=%v dest=%d sent=%d push=%d\n", p.Data, p.ViaDMA, p.Dest, p.SentAt, p.FIFOPush)
	}
	return out
}

// TestResetMatchesNew: a NIC reset after a run, to a config with another
// FIFO depth, DMA burst and wire speed, is in every field what NewNIC
// builds, and then sends what a new NIC sends, cutting its packets from
// the start of the slab it kept.
func TestResetMatchesNew(t *testing.T) {
	n := NewNIC(Config{FIFODepth: 4, DMABurst: 32})
	sendSome(t, n)
	chunk := n.slab
	cfg := Config{FIFODepth: 2, DMABurst: 16, WireCyclesPerByte: 1}
	n.Reset(cfg)
	fresh := NewNIC(cfg)
	if got, want := nicState(n), nicState(fresh); got != want {
		t.Fatalf("reset NIC\n%s\nnew NIC\n%s", got, want)
	}
	want := sendSome(t, fresh)
	if want == "" {
		t.Fatal("no packet sent")
	}
	if got := sendSome(t, n); got != want {
		t.Errorf("reset NIC sent\n%s\nnew NIC sent\n%s", got, want)
	}
	if &n.Packets()[0].Data[0] != &chunk[0] {
		t.Error("the reset NIC's first packet is not cut from the start of its old slab")
	}
}
