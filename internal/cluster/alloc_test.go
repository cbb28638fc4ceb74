//go:build !race

// Excluded under the race detector: its instrumentation allocates on paths
// that are allocation-free in normal builds.

package cluster

import (
	"testing"
)

// TestPumpAllocs pins Node.pump's word buffers to the node's slab:
// pumping N 64-byte packets (8 words each) makes at most ⌈8N/wordSlab⌉
// allocations, once the outbox has grown to hold them.
func TestPumpAllocs(t *testing.T) {
	const sends = 200
	c := newCluster(t, 0)
	n := c.Node(0)
	n.M.MapNIC(false)
	src := `
	set 0x40000000, %o0
	set 0x40001000, %o1
	set 64, %g4
	sll %g4, 48, %g4        ! descriptor: 64 bytes from packet-buffer offset 0
	set ` + itoa(sends) + `, %g7
loop:
	stx %g7, [%o1]
	stx %g7, [%o1+8]
	stx %g7, [%o1+16]
	stx %g7, [%o1+24]
	stx %g7, [%o1+32]
	stx %g7, [%o1+40]
	stx %g7, [%o1+48]
	stx %g7, [%o1+56]
	membar
	stx %g4, [%o0]
	membar
	subcc %g7, 1, %g7
	bnz loop
	halt
`
	if _, err := n.M.LoadSource("send.s", src); err != nil {
		t.Fatal(err)
	}
	if err := n.M.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if err := n.M.Drain(1_000_000); err != nil {
		t.Fatal(err)
	}
	pkts := len(n.NIC.Packets())
	if pkts < sends/2 {
		t.Fatalf("%d packets sent, want at least %d", pkts, sends/2)
	}
	for _, p := range n.NIC.Packets() {
		if len(p.Data) != 64 {
			t.Fatalf("packet of %d bytes, want 64", len(p.Data))
		}
	}
	pump := func() {
		n.delivered = 0
		n.outbox = n.outbox[:0]
		n.pump(1)
	}
	bound := (8*pkts + wordSlab - 1) / wordSlab
	if got := testing.AllocsPerRun(10, pump); got > float64(bound) {
		t.Errorf("pumping %d packets made %v allocations, want at most %d", pkts, got, bound)
	} else {
		t.Logf("pumping %d packets made %v allocations (bound %d)", pkts, got, bound)
	}
	if got := len(n.outbox); got != pkts {
		t.Fatalf("outbox holds %d departures, want %d", got, pkts)
	}
	for i, d := range n.outbox {
		if len(d.words) != 8 || cap(d.words) != 8 || d.words[0] != uint64(sends-i) {
			t.Fatalf("departure %d: words %v (cap %d), want 8 copies of %d", i, d.words, cap(d.words), sends-i)
		}
	}
}
