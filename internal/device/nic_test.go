package device

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"csbsim/internal/bus"
	"csbsim/internal/mem"
)

const base = 0x4000_0000

func newRig(t *testing.T, cfg Config) (*NIC, *bus.Bus, *mem.Memory) {
	t.Helper()
	n := NewNIC(cfg, base)
	b, ram := rigFor(t, n)
	return n, b, ram
}

// rigFor maps n on a new bus over a new memory.
func rigFor(t *testing.T, n *NIC) (*bus.Bus, *mem.Memory) {
	t.Helper()
	ram := mem.NewMemory()
	rt := mem.NewRouter(ram)
	if err := rt.Register(base, RegionSize, "nic", n); err != nil {
		t.Fatal(err)
	}
	b, err := bus.New(bus.Config{Model: bus.Multiplexed, WidthBytes: 8, ReadWait: 4}, rt)
	if err != nil {
		t.Fatal(err)
	}
	return b, ram
}

func step(n *NIC, b *bus.Bus, cycles int) {
	for i := 0; i < cycles; i++ {
		b.Tick()
		n.TickBus(b)
	}
}

func desc(offset uint64, length int) []byte {
	v := offset | uint64(length)<<48
	out := make([]byte, 8)
	putLE(out, v)
	return out
}

func TestPIOPacketSend(t *testing.T) {
	n, b, _ := newRig(t, DefaultConfig())
	// Write payload into the packet buffer (as CSB bursts would).
	payload := []byte("hello, wire!")
	n.WriteTarget(base+PacketBufBase+64, payload)
	// Push a descriptor: offset 64, length len(payload).
	n.WriteTarget(base+RegTxFIFO, desc(64, len(payload)))
	step(n, b, 10)
	pkts := n.Packets()
	if len(pkts) != 1 {
		t.Fatalf("packets = %d, want 1", len(pkts))
	}
	if !bytes.Equal(pkts[0].Data, payload) {
		t.Errorf("payload = %q", pkts[0].Data)
	}
	if pkts[0].ViaDMA {
		t.Error("PIO packet marked as DMA")
	}
	if !n.Idle() {
		t.Error("NIC not idle after send")
	}
}

func TestBurstWriteToPacketBuffer(t *testing.T) {
	n, b, _ := newRig(t, DefaultConfig())
	// A CSB-style 64-byte burst transaction into the packet buffer.
	line := make([]byte, 64)
	for i := range line {
		line[i] = byte(i)
	}
	txn := &bus.Txn{Addr: base + PacketBufBase, Size: 64, Write: true, Data: line, IO: true, Ordered: true}
	if !b.TryIssue(txn) {
		t.Fatal("burst not accepted")
	}
	b.Drain(100)
	got := readNIC(n, base+PacketBufBase, 64)
	if !bytes.Equal(got, line) {
		t.Error("burst data did not land in packet buffer")
	}
	_ = b
}

func TestDMATransfer(t *testing.T) {
	n, b, ram := newRig(t, DefaultConfig())
	msg := make([]byte, 200)
	for i := range msg {
		msg[i] = byte(i * 3)
	}
	src := uint64(0x1_0000)
	ram.Write(src, msg)
	// One store starts the whole DMA (Atoll-style packed descriptor).
	n.WriteTarget(base+RegDMA, desc(src, len(msg)))
	step(n, b, 500)
	pkts := n.Packets()
	if len(pkts) != 1 {
		t.Fatalf("packets = %d, want 1", len(pkts))
	}
	if !pkts[0].ViaDMA {
		t.Error("DMA packet not marked")
	}
	if pkts[0].SrcAddr != src {
		t.Errorf("src = %#x", pkts[0].SrcAddr)
	}
	if !bytes.Equal(pkts[0].Data, msg) {
		t.Error("DMA payload mismatch")
	}
	// DMA used burst reads on the bus.
	if s := b.Stats(); s.Reads < 3 || s.BySize[64] < 3 {
		t.Errorf("bus stats %+v: expected >=3 64B read bursts", s)
	}
}

func TestDMAUnalignedTail(t *testing.T) {
	n, b, ram := newRig(t, DefaultConfig())
	msg := make([]byte, 100) // 64 + 32 + 4
	for i := range msg {
		msg[i] = byte(i)
	}
	ram.Write(0x2_0000, msg)
	n.WriteTarget(base+RegDMA, desc(0x2_0000, len(msg)))
	step(n, b, 1000)
	if len(n.Packets()) != 1 {
		t.Fatal("packet not sent")
	}
	if !bytes.Equal(n.Packets()[0].Data, msg) {
		t.Error("tail bytes corrupted")
	}
}

func TestStatusRegister(t *testing.T) {
	n, b, _ := newRig(t, Config{FIFODepth: 1, WireCyclesPerByte: 10, DMABurst: 64})
	st := leUint(readNIC(n, base+RegStatus, 8))
	if st != 0 {
		t.Errorf("fresh status = %#x", st)
	}
	n.WriteTarget(base+PacketBufBase, []byte{1, 2, 3, 4})
	n.WriteTarget(base+RegTxFIFO, desc(0, 4))
	n.WriteTarget(base+RegTxFIFO, desc(0, 4)) // fills the 1-deep FIFO
	st = leUint(readNIC(n, base+RegStatus, 8))
	if st&2 == 0 {
		t.Error("FIFO-full bit not set")
	}
	step(n, b, 1)
	st = leUint(readNIC(n, base+RegStatus, 8))
	if st&1 == 0 {
		t.Error("TX-busy bit not set during slow send")
	}
	step(n, b, 200)
	st = leUint(readNIC(n, base+RegStatus, 8))
	// The second descriptor was dropped by the full 1-deep FIFO.
	if got := st >> 32; got != 1 {
		t.Errorf("packets-sent counter = %d, want 1", got)
	}
	if n.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", n.Dropped())
	}
}

func TestFIFOOverflowDrops(t *testing.T) {
	n, _, _ := newRig(t, Config{FIFODepth: 2, DMABurst: 64})
	for i := 0; i < 5; i++ {
		n.WriteTarget(base+RegTxFIFO, desc(0, 8))
	}
	if n.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", n.Dropped())
	}
}

func TestInterruptOnCompletion(t *testing.T) {
	n, b, _ := newRig(t, DefaultConfig())
	fired := 0
	n.Interrupt = func() { fired++ }
	n.WriteTarget(base+RegTxFIFO, desc(0, 8))
	step(n, b, 10)
	if fired != 1 {
		t.Fatalf("interrupt fired %d times, want 1", fired)
	}
	if !n.IntPending() {
		t.Fatal("interrupt not pending")
	}
	n.WriteTarget(base+RegIntAck, []byte{0, 0, 0, 0, 0, 0, 0, 0})
	if n.IntPending() {
		t.Error("ack did not clear interrupt")
	}
}

func TestWireSerializationDelay(t *testing.T) {
	n, b, _ := newRig(t, Config{FIFODepth: 4, WireCyclesPerByte: 2, DMABurst: 64})
	n.WriteTarget(base+RegTxFIFO, desc(0, 50))
	start := b.Cycle()
	step(n, b, 1) // starts sending
	for i := 0; i < 1000 && len(n.Packets()) == 0; i++ {
		step(n, b, 1)
	}
	if len(n.Packets()) != 1 {
		t.Fatal("packet never sent")
	}
	if got := n.Packets()[0].SentAt - start; got < 100 {
		t.Errorf("send took %d cycles, want >= 100 (50B x 2cyc)", got)
	}
}

func TestAlignSize(t *testing.T) {
	tests := []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 2}, {4, 4}, {7, 4}, {8, 8}, {100, 64}, {64, 64},
	}
	for _, tt := range tests {
		if got := alignSize(tt.in); got != tt.want {
			t.Errorf("alignSize(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestRxQueuePopOnRead(t *testing.T) {
	n, _, _ := newRig(t, DefaultConfig())
	n.Deliver(11, 22, 33)
	if got := leUint(readNIC(n, base+RegRxCount, 8)); got != 3 {
		t.Fatalf("count = %d", got)
	}
	if got := leUint(readNIC(n, base+RegRxPop, 8)); got != 11 {
		t.Errorf("pop 1 = %d", got)
	}
	if got := leUint(readNIC(n, base+RegRxPop, 8)); got != 22 {
		t.Errorf("pop 2 = %d (destructive read must advance)", got)
	}
	if got := leUint(readNIC(n, base+RegRxCount, 8)); got != 1 {
		t.Errorf("count after pops = %d", got)
	}
	if n.RxPops() != 2 {
		t.Errorf("pops = %d", n.RxPops())
	}
}

func TestRxQueueEmptyReturnsSentinel(t *testing.T) {
	n, _, _ := newRig(t, DefaultConfig())
	if got := leUint(readNIC(n, base+RegRxPop, 8)); got != RxEmpty {
		t.Errorf("empty pop = %#x, want RxEmpty", got)
	}
	if n.RxPops() != 0 {
		t.Error("empty pop counted as a pop")
	}
}

func TestRxCountIsNonDestructive(t *testing.T) {
	n, _, _ := newRig(t, DefaultConfig())
	n.Deliver(7)
	readNIC(n, base+RegRxCount, 8)
	readNIC(n, base+RegRxCount, 8)
	if n.RxPending() != 1 {
		t.Error("RegRxCount consumed data")
	}
}

func TestDeliverTracedDrainHook(t *testing.T) {
	n, _, _ := newRig(t, DefaultConfig())
	var drained []uint64
	n.SetRxDrainHook(func(id uint64) { drained = append(drained, id) })
	n.DeliverTraced(101, 1, 2)   // two-word packet
	n.DeliverTraced(102, 3)      // one-word packet
	readNIC(n, base+RegRxPop, 8) // word 1 of pkt 101
	if len(drained) != 0 {
		t.Fatalf("drain fired mid-packet: %v", drained)
	}
	readNIC(n, base+RegRxPop, 8) // word 2 of pkt 101 → drain 101
	readNIC(n, base+RegRxPop, 8) // pkt 102 → drain 102
	if len(drained) != 2 || drained[0] != 101 || drained[1] != 102 {
		t.Fatalf("drained = %v, want [101 102]", drained)
	}
	// Empty pops past the end never re-fire.
	readNIC(n, base+RegRxPop, 8)
	if len(drained) != 2 {
		t.Fatalf("sentinel pop fired a drain: %v", drained)
	}
}

func TestUntracedDeliverNoDrainHook(t *testing.T) {
	n, _, _ := newRig(t, DefaultConfig())
	var drained []uint64
	n.SetRxDrainHook(func(id uint64) { drained = append(drained, id) })
	n.Deliver(1, 2) // plain delivery: no span, no drain events
	readNIC(n, base+RegRxPop, 8)
	readNIC(n, base+RegRxPop, 8)
	if len(drained) != 0 {
		t.Fatalf("untraced delivery fired drains: %v", drained)
	}
}

func TestRxHighWater(t *testing.T) {
	n, _, _ := newRig(t, DefaultConfig())
	n.Deliver(1, 2, 3)
	readNIC(n, base+RegRxPop, 8)
	n.Deliver(4) // pending back to 3, high water stays 3
	if n.RxHighWater() != 3 {
		t.Fatalf("high water = %d, want 3", n.RxHighWater())
	}
	n.Deliver(5) // pending 4 → new high water
	if n.RxHighWater() != 4 {
		t.Fatalf("high water = %d, want 4", n.RxHighWater())
	}
}

// TestRxQueueOrderAcrossReuse: words come out in delivery order while the
// queue reuses its drained prefix, with and without a standing backlog,
// and the pending count and high water read as the words in flight.
func TestRxQueueOrderAcrossReuse(t *testing.T) {
	n, _, _ := newRig(t, DefaultConfig())
	var next, want, high uint64
	deliver := func(k int) {
		for range k {
			next++
			n.Deliver(next)
		}
		high = max(high, next-want)
	}
	pop := func(k int) {
		for range k {
			want++
			if v, ok := n.RxPop(); !ok || v != want {
				t.Fatalf("pop = %d, %v; want %d", v, ok, want)
			}
		}
	}
	for round := range 50 {
		deliver(round%7 + 2)
		pop(round%7 + 1) // leaves one more word behind each round
		if got := uint64(n.RxPending()); got != next-want {
			t.Fatalf("round %d: pending %d, want %d", round, got, next-want)
		}
		if got := leUint(readNIC(n, base+RegRxCount, 8)); got != next-want {
			t.Fatalf("round %d: RegRxCount %d, want %d", round, got, next-want)
		}
	}
	pop(int(next - want))
	if _, ok := n.RxPop(); ok || n.RxPending() != 0 {
		t.Fatalf("queue not empty after draining every word")
	}
	if got := uint64(n.RxHighWater()); got != high {
		t.Errorf("high water = %d, want %d", got, high)
	}
}

func TestTxDestSteersPackets(t *testing.T) {
	n, b, _ := newRig(t, DefaultConfig())
	// Default: no steering → topology default route.
	n.WriteTarget(base+PacketBufBase, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	n.WriteTarget(base+RegTxFIFO, desc(0, 8))
	step(n, b, 10)
	// Steer to node 3; the setting is sticky across descriptors.
	dst := make([]byte, 8)
	putLE(dst, 3)
	n.WriteTarget(base+RegTxDest, dst)
	if got := leUint(readNIC(n, base+RegTxDest, 8)); got != 3 {
		t.Errorf("RegTxDest reads back %d, want 3", got)
	}
	n.WriteTarget(base+RegTxFIFO, desc(0, 8))
	step(n, b, 10)
	n.WriteTarget(base+RegTxFIFO, desc(0, 8))
	step(n, b, 10)
	// Back to auto.
	putLE(dst, TxDestAuto)
	n.WriteTarget(base+RegTxDest, dst)
	if got := leUint(readNIC(n, base+RegTxDest, 8)); got != TxDestAuto {
		t.Errorf("RegTxDest reads back %d, want auto sentinel", got)
	}
	n.WriteTarget(base+RegTxFIFO, desc(0, 8))
	step(n, b, 10)
	pkts := n.Packets()
	if len(pkts) != 4 {
		t.Fatalf("packets = %d, want 4", len(pkts))
	}
	for i, want := range []int{-1, 3, 3, -1} {
		if pkts[i].Dest != want {
			t.Errorf("packet %d dest = %d, want %d", i, pkts[i].Dest, want)
		}
	}
}

func TestRxPopMatchesRegister(t *testing.T) {
	n, b, _ := newRig(t, DefaultConfig())
	n.Deliver(11, 22)
	if v, ok := n.RxPop(); !ok || v != 11 {
		t.Fatalf("RxPop = %d,%v want 11,true", v, ok)
	}
	// The register path pops the same queue.
	if got := leUint(readNIC(n, base+RegRxPop, 8)); got != 22 {
		t.Fatalf("RegRxPop = %d, want 22", got)
	}
	if _, ok := n.RxPop(); ok {
		t.Error("RxPop on empty queue reported ok")
	}
	_ = b
}

// readNIC reads size bytes at pa from n into a fresh buffer.
func readNIC(n *NIC, pa uint64, size int) []byte {
	out := make([]byte, size)
	n.ReadTarget(pa, out)
	return out
}

// nicOp encodes one FuzzNICRegisters record.
func nicOp(write bool, sizeIdx int, off, v uint64, ticks uint8) []byte {
	rec := make([]byte, 12)
	rec[0] = byte(sizeIdx << 1)
	if write {
		rec[0] |= 1
	}
	binary.LittleEndian.PutUint16(rec[1:], uint16(off))
	binary.LittleEndian.PutUint64(rec[3:], v)
	rec[11] = ticks
	return rec
}

// FuzzNICRegisters drives the NIC with a sequence of register and
// packet-buffer accesses decoded from the input, ticking it on a
// RAM-backed bus after each. A 12-byte record is a control byte (bit 0
// write, bits 1-7 an index into the sizes {1, 2, 4, 8, 64}, modulo 5), a
// little-endian offset (modulo RegionSize), an 8-byte value (repeated to
// fill a 64-byte write) and the bus ticks to run. Whatever the sequence,
// nothing panics, Err is nil or an *AddrError, BadDescs counts exactly
// the pushes whose descriptor points outside the packet buffer, and no
// sent packet is longer than the buffer.
func FuzzNICRegisters(f *testing.F) {
	f.Add(slices.Concat(
		nicOp(true, 4, PacketBufBase+64, 0x1122334455667788, 0),
		nicOp(true, 3, RegTxFIFO, 64|64<<48, 20),
		nicOp(false, 3, RegStatus, 0, 0)))
	f.Add(slices.Concat(
		nicOp(true, 3, RegTxFIFO, 0x8000|64<<48, 1),
		nicOp(true, 3, RegTxFIFO, PacketBufSize|1<<48, 1),
		nicOp(false, 3, RegStatus, 0, 0)))
	f.Add(slices.Concat(
		nicOp(true, 3, RegDMA, 0x1000|200<<48, 255),
		nicOp(true, 3, RegDMA, 0x1000|(PacketBufSize+1)<<48, 1),
		nicOp(true, 3, RegTxDest, 2, 0),
		nicOp(false, 2, RegRxPop, 0, 0)))
	sizes := [...]int{1, 2, 4, 8, 64}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, b, _ := newRig(t, DefaultConfig())
		var bad uint64
		buf := make([]byte, 64)
		for ; len(data) >= 12; data = data[12:] {
			p := buf[:sizes[int(data[0]>>1)%len(sizes)]]
			off := uint64(binary.LittleEndian.Uint16(data[1:])) % RegionSize
			v := binary.LittleEndian.Uint64(data[3:])
			if data[0]&1 == 0 {
				n.ReadTarget(base+off, p)
			} else {
				for i := range p {
					p[i] = byte(v >> (8 * (i % 8)))
				}
				if o, l := v&(1<<48-1), v>>48; off == RegTxFIFO && len(p) == 8 &&
					(o > PacketBufSize || o+l > PacketBufSize) {
					bad++
				}
				n.WriteTarget(base+off, p)
			}
			step(n, b, int(data[11]))
		}
		if err := n.Err(); err != nil {
			if _, ok := err.(*AddrError); !ok {
				t.Errorf("Err() = %T %v, want nil or *AddrError", err, err)
			}
		}
		if n.BadDescs() != bad {
			t.Errorf("BadDescs() = %d, want the %d out-of-buffer pushes made", n.BadDescs(), bad)
		}
		for i, p := range n.Packets() {
			if len(p.Data) > PacketBufSize {
				t.Errorf("packet %d is %d bytes, more than the %d-byte buffer", i, len(p.Data), PacketBufSize)
			}
		}
	})
}
