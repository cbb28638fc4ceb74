// Package device provides the memory-mapped I/O devices used by the
// examples and the PIO/DMA crossover experiment: a network interface in
// the style the paper cites — a Medusa-like transmit descriptor FIFO that
// a single store can push (§2), an Atoll-like DMA engine whose transfer is
// started by one descriptor write packing address and length (§2), and a
// burst-capable packet buffer so CSB line bursts land directly in the
// device (§3.3).
package device

import (
	"fmt"

	"csbsim/internal/bus"
	"csbsim/internal/mem"
	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/journey"
)

// NIC register layout (offsets from the device base).
const (
	// RegTxFIFO pushes a transmit descriptor: bits [47:0] packet buffer
	// offset, bits [63:48] length. One uncached store both enqueues the
	// descriptor and starts transmission — no locking required because a
	// bus transaction is atomic.
	RegTxFIFO = 0x000
	// RegDMA starts a DMA transfer from main memory into the packet
	// buffer: bits [47:0] source physical address, bits [63:48] length.
	// The NIC fetches the data over the system bus and then transmits.
	RegDMA = 0x008
	// RegStatus reads NIC state: bit 0 = TX busy, bit 1 = FIFO full,
	// bits [31:16] = dropped-descriptor count (mod 2^16), bits [63:32] =
	// packets sent. The drop counter is how software detects that a push
	// landed in a full (or backpressured) FIFO and must be retried: read
	// the counter, push, re-read — if it advanced, the descriptor was
	// dropped.
	RegStatus = 0x010
	// RegIntAck clears a pending completion interrupt.
	RegIntAck = 0x018
	// RegRxPop pops one 8-byte word from the receive queue — a load with
	// a side effect, the paper's §2 example of why I/O loads must execute
	// exactly once and never speculatively. Reading it when the queue is
	// empty returns RxEmpty.
	RegRxPop = 0x020
	// RegRxCount reads the number of words waiting in the receive queue
	// (no side effect).
	RegRxCount = 0x028
	// RegTxDest selects the destination node for subsequent transmit
	// descriptors on a multi-node fabric: write a node index to steer the
	// next packets there, or TxDestAuto to return to the topology's default
	// route. The register is sticky (it applies to every descriptor pushed
	// until rewritten) and readable. Single-wire setups ignore it.
	RegTxDest = 0x030
	// PacketBufBase is where the on-board packet buffer begins; the CSB
	// (or uncached stores) write packet payloads here by PIO.
	PacketBufBase = 0x1000
	// PacketBufSize is the size of the on-board packet buffer.
	PacketBufSize = 0x1000
	// RegionSize is the total claimed address range.
	RegionSize = PacketBufBase + PacketBufSize
)

// TxDestAuto is the RegTxDest value selecting the topology default route
// (also what the register holds at reset).
const TxDestAuto = 0xffff

// Packet is one transmitted packet, as observed on the simulated wire.
type Packet struct {
	Data     []byte
	SentAt   uint64 // bus cycle the transmission completed
	ViaDMA   bool
	SrcAddr  uint64 // DMA source, 0 for PIO
	FIFOPush uint64 // bus cycle the descriptor arrived
	// Dest is the destination node index latched from RegTxDest when the
	// descriptor was pushed, or -1 for the topology default route.
	Dest int
	// JID is the sender-side descriptor journey ID (0 when untraced) — a
	// tracing side channel carried with the packet so the cluster wire
	// tracer can join the cross-node span to the sender's NIC hops. It is
	// never guest-visible and does not affect simulated timing.
	JID uint64
}

// Config parameterizes the NIC.
type Config struct {
	// FIFODepth bounds queued transmit descriptors (hardware FIFO).
	FIFODepth int
	// WireCyclesPerByte models serialization onto the link, in bus
	// cycles per byte (0 = infinitely fast wire).
	WireCyclesPerByte int
	// DMABurst is the DMA engine's per-transaction read size in bytes.
	DMABurst int
}

// DefaultConfig returns a 16-deep FIFO NIC with 64-byte DMA bursts and a
// fast wire.
func DefaultConfig() Config {
	return Config{FIFODepth: 16, WireCyclesPerByte: 0, DMABurst: 64}
}

type txDesc struct {
	offset uint64
	length int
	pushed uint64
	viaDMA bool
	srcPA  uint64
	jid    uint64 // journey ID, 0 when untraced
	dest   int    // destination node index, -1 = topology default
}

type dmaState int

const (
	dmaIdle dmaState = iota
	dmaReading
)

// NIC is the simulated network interface. It implements mem.Target for
// register/packet-buffer access; sim.Machine.AddNIC ticks it as a bus
// master (DMA).
type NIC struct {
	cfg  Config
	base uint64

	packetBuf []byte
	fifo      []txDesc
	sending   bool
	sendDone  uint64 // bus cycle current transmission finishes
	cur       txDesc

	dma       dmaState
	dmaSrc    uint64
	dmaLen    int
	dmaOff    int
	dmaInFly  bool
	dmaPushed uint64
	// dmaTxn is the DMA engine's one bus read, reissued for every burst
	// and every retry; its buffer holds DMABurst bytes and its Done is
	// bound once, so a burst allocates nothing.
	dmaTxn bus.Txn

	intPending bool
	// Interrupt, if set, is invoked on send completion (level-style; the
	// kernel acks via RegIntAck).
	Interrupt func()

	// rxQueue[rxHead:] holds the words waiting in the receive queue. A pop
	// advances rxHead; both reset when the queue drains, and a delivery
	// that would outgrow the backing array first moves the live words
	// down, so the drained prefix is reused instead of reallocated.
	rxQueue []uint64
	rxHead  int
	rxPops  uint64
	// rxHighWater is the deepest the RX queue has ever been (in words) —
	// the cluster-level backpressure signal the counter registry and the
	// csbrec top dashboard surface.
	rxHighWater int
	// rxSpans tracks packet boundaries inside the RX queue for drain
	// tracing (only populated when rxDrained is set): head span's word
	// count decrements per destructive pop, firing rxDrained at zero.
	rxSpans   []rxSpan
	rxSpanPos int // index of the head span (compacted when fully drained)

	lastCycle uint64 // most recent bus cycle seen in TickBus (or SkipTo)
	packets   []Packet
	// slab is the unused tail of the chunk sent packets' Data is cut
	// from, so a send allocates once per packetSlab bytes, not per packet.
	slab    []byte
	dropped uint64

	// txDest is the destination node index latched from RegTxDest and
	// stamped onto every descriptor at push time (-1 = default route).
	txDest int

	// err is the first out-of-range guest access (nil if none); surfaced
	// by sim.Machine.Run as a typed failure instead of a panic.
	err      error
	badDescs uint64

	// Fault injection (SetFaultHooks): stallLeft freezes the whole device
	// (DMA, transmission, interrupt delivery) for a latency burst; bpLeft
	// is an open backpressure window during which descriptor pushes are
	// refused and the status register advertises a full FIFO.
	stallLeft int
	bpLeft    int
	stallHook func() int
	bpHook    func() int

	// tracer, if attached (AttachTracer), records each descriptor's
	// journey: queued, transmission started, on the wire.
	tracer *journey.Tracer
	// rxDrained fires when the last word of a span delivered via
	// DeliverTraced is popped by software (SetRxDrainHook).
	rxDrained func(id uint64)

	// wake, if set, runs before any input from outside the bus ticks — a
	// register or buffer write, an RX delivery — so a machine skipping
	// this quiet device's ticks stops first (SetWake).
	wake func()
}

// rxSpan is one traced packet's word span inside the RX queue.
type rxSpan struct {
	id    uint64
	words int
}

// AttachTracer installs the journey tracer: a descriptor's journey
// begins when it is accepted into the FIFO, and its transmission start
// and its last byte onto the wire are stamped as hops.
func (n *NIC) AttachTracer(t *journey.Tracer) { n.tracer = t }

// SetRxDrainHook installs the RX drain hook: it fires with a span's ID
// when the last word of a packet delivered via DeliverTraced is popped by
// software. The hook enables span tracking; without it DeliverTraced
// behaves exactly like Deliver.
func (n *NIC) SetRxDrainHook(fn func(id uint64)) { n.rxDrained = fn }

// RegisterCounters registers the NIC's counters with the unified
// registry under prefix (e.g. "dev0"), as read closures over the live
// device state.
func (n *NIC) RegisterCounters(prefix string, r *counters.Registry) {
	r.Counter(prefix+"/packets_sent", func() uint64 { return uint64(len(n.packets)) })
	r.Counter(prefix+"/dropped_descs", func() uint64 { return n.dropped })
	r.Counter(prefix+"/bad_descs", func() uint64 { return n.badDescs })
	r.Counter(prefix+"/rx_pops", func() uint64 { return n.rxPops })
	r.Gauge(prefix+"/rx_pending", func() uint64 { return uint64(n.RxPending()) })
	r.Counter(prefix+"/rx_highwater", func() uint64 { return uint64(n.rxHighWater) })
}

// SetFaultHooks installs the fault-injection hooks (either may be nil).
// stall is consulted each bus tick while the device runs freely and
// returns the length of a latency burst to inject (0 = none);
// backpressure likewise returns the length of a FIFO backpressure window.
func (n *NIC) SetFaultHooks(stall, backpressure func() int) {
	n.stallHook = stall
	n.bpHook = backpressure
}

// Err returns the first out-of-range access recorded on this device, or
// nil. sim.Machine.Run polls this and fails the run with the typed error.
func (n *NIC) Err() error { return n.err }

// BadDescs returns the number of descriptors rejected for pointing
// outside the packet buffer.
func (n *NIC) BadDescs() uint64 { return n.badDescs }

func (n *NIC) setErr(op string, addr uint64, size int, bound uint64) {
	if n.err == nil {
		n.err = &AddrError{Dev: n.String(), Op: op, Addr: addr, Size: size, Bound: bound}
	}
}

// RxEmpty is returned by RegRxPop when the receive queue is empty.
const RxEmpty = ^uint64(0)

// NewNIC creates a NIC claiming [base, base+RegionSize).
func NewNIC(cfg Config, base uint64) *NIC {
	if cfg.FIFODepth <= 0 {
		cfg.FIFODepth = 16
	}
	if cfg.DMABurst <= 0 || cfg.DMABurst&(cfg.DMABurst-1) != 0 {
		cfg.DMABurst = 64
	}
	n := &NIC{
		cfg:       cfg,
		base:      base,
		packetBuf: make([]byte, PacketBufSize),
		txDest:    -1,
	}
	n.dmaTxn = bus.Txn{Data: make([]byte, cfg.DMABurst), Done: func(t *bus.Txn) {
		copy(n.packetBuf[n.dmaOff:], t.Data)
		n.dmaOff += t.Size
		n.dmaInFly = false
	}}
	return n
}

// Base returns the device's base physical address.
func (n *NIC) Base() uint64 { return n.base }

// Packets returns everything transmitted so far.
func (n *NIC) Packets() []Packet { return n.packets }

// Dropped returns the number of descriptors rejected by a full FIFO.
func (n *NIC) Dropped() uint64 { return n.dropped }

// IntPending reports whether a completion interrupt is outstanding.
func (n *NIC) IntPending() bool { return n.intPending }

// ---- mem.Target ----

// ReadTarget implements register and packet-buffer reads. Unmapped
// offsets read as zero.
func (n *NIC) ReadTarget(pa uint64, out []byte) {
	off := pa - n.base
	size := len(out)
	clear(out)
	switch {
	case off >= PacketBufBase && off+uint64(size) <= PacketBufBase+PacketBufSize:
		copy(out, n.packetBuf[off-PacketBufBase:])
	case off == RegStatus:
		var v uint64
		if n.sending {
			v |= 1
		}
		if len(n.fifo) >= n.cfg.FIFODepth || n.bpLeft > 0 {
			v |= 2
		}
		v |= (n.dropped & 0xffff) << 16
		v |= uint64(len(n.packets)) << 32
		putLE(out, v)
	case off == RegRxPop:
		// Destructive read: pops the queue. This is why the simulated
		// processor must never issue this load speculatively.
		v, ok := n.RxPop()
		if !ok {
			v = RxEmpty
		}
		putLE(out, v)
	case off == RegRxCount:
		putLE(out, uint64(n.RxPending()))
	case off == RegTxDest:
		v := uint64(TxDestAuto)
		if n.txDest >= 0 {
			v = uint64(n.txDest)
		}
		putLE(out, v)
	}
}

// RxPop destructively pops one word from the receive queue — the
// host-side equivalent of a RegRxPop load, used by load generators that
// drain replies without going through a guest. It does not allocate.
//
//csb:hotpath
func (n *NIC) RxPop() (uint64, bool) {
	if n.rxHead == len(n.rxQueue) {
		return 0, false
	}
	v := n.rxQueue[n.rxHead]
	n.rxHead++
	if n.rxHead == len(n.rxQueue) {
		n.rxQueue = n.rxQueue[:0]
		n.rxHead = 0
	}
	n.rxPops++
	n.notePop()
	return v, true
}

// SetWake installs the hook run before every register or packet-buffer
// write and every RX delivery: the machine's cue that the device may no
// longer be quiet.
func (n *NIC) SetWake(fn func()) { n.wake = fn }

// Deliver injects received words into the RX queue (the simulated wire's
// receive side).
func (n *NIC) Deliver(words ...uint64) { n.DeliverWords(0, words) }

// DeliverTraced is Deliver plus span tracking: when an RX drain hook is
// installed, the words are remembered as one packet span and the hook
// fires with id when software pops the span's last word. Guest-visible
// behavior is identical to Deliver.
func (n *NIC) DeliverTraced(id uint64, words ...uint64) { n.DeliverWords(id, words) }

// DeliverWords is the non-variadic core of Deliver/DeliverTraced (id 0 =
// untraced), taking the word slice directly so per-cycle callers stay off
// the allocator.
//
//csb:hotpath
func (n *NIC) DeliverWords(id uint64, words []uint64) {
	if n.wake != nil {
		n.wake()
	}
	if q := n.rxQueue; n.rxHead > 0 && len(q)+len(words) > cap(q) {
		n.rxQueue = q[:copy(q, q[n.rxHead:])]
		n.rxHead = 0
	}
	n.rxQueue = append(n.rxQueue, words...) //csb:alloc-ok grows only when the live queue outgrows its backing array
	if d := n.RxPending(); d > n.rxHighWater {
		n.rxHighWater = d
	}
	if id != 0 && n.rxDrained != nil && len(words) > 0 {
		n.rxSpans = append(n.rxSpans, rxSpan{id: id, words: len(words)}) //csb:alloc-ok amortized span queue growth
	}
}

// notePop advances the head RX span after one destructive pop, firing the
// drain hook when a span empties.
//
//csb:hotpath
func (n *NIC) notePop() {
	if n.rxDrained == nil || n.rxSpanPos >= len(n.rxSpans) {
		return
	}
	s := &n.rxSpans[n.rxSpanPos]
	s.words--
	if s.words > 0 {
		return
	}
	n.rxDrained(s.id)
	n.rxSpanPos++
	if n.rxSpanPos == len(n.rxSpans) {
		// All spans drained: reset the backing slice in place so the span
		// queue stops growing across a long run.
		n.rxSpans = n.rxSpans[:0]
		n.rxSpanPos = 0
	}
}

// RxHighWater returns the deepest the RX queue has ever been, in words.
func (n *NIC) RxHighWater() int { return n.rxHighWater }

// RxPending returns the number of undelivered RX words.
func (n *NIC) RxPending() int { return len(n.rxQueue) - n.rxHead }

// RxPops returns how many destructive RX reads have occurred.
func (n *NIC) RxPops() uint64 { return n.rxPops }

// WriteTarget implements register and packet-buffer writes, including CSB
// line bursts into the packet buffer (§3.3: the target device must accept
// burst writes).
func (n *NIC) WriteTarget(pa uint64, data []byte) {
	if n.wake != nil {
		n.wake()
	}
	off := pa - n.base
	switch {
	case off >= PacketBufBase && off+uint64(len(data)) <= PacketBufBase+PacketBufSize:
		copy(n.packetBuf[off-PacketBufBase:], data)
	case off == RegTxFIFO && len(data) == 8:
		v := leUint(data)
		n.pushDescriptor(txDesc{
			offset: v & (1<<48 - 1),
			length: int(v >> 48),
			pushed: n.now(),
		})
	case off == RegDMA && len(data) == 8:
		v := leUint(data)
		if length := int(v >> 48); length > PacketBufSize {
			// The transfer would overrun the packet buffer; refuse it
			// rather than index past the slice.
			n.setErr("dma-transfer", v&(1<<48-1), length, PacketBufSize)
		} else if n.dma == dmaIdle {
			n.dmaSrc = v & (1<<48 - 1)
			n.dmaLen = length
			n.dmaOff = 0
			n.dma = dmaReading
			n.dmaPushed = n.now()
		}
	case off == RegTxDest && len(data) == 8:
		v := leUint(data)
		if v >= TxDestAuto {
			n.txDest = -1
		} else {
			n.txDest = int(v)
		}
	case off == RegIntAck:
		n.intPending = false
	}
}

func (n *NIC) pushDescriptor(d txDesc) {
	if d.offset > PacketBufSize || d.offset+uint64(d.length) > PacketBufSize {
		// The descriptor points outside the packet buffer: record the
		// error (guests used to crash the whole simulator here) and drop
		// the descriptor.
		n.setErr("tx-descriptor", d.offset, d.length, PacketBufSize)
		n.badDescs++
		return
	}
	if n.bpLeft > 0 || len(n.fifo) >= n.cfg.FIFODepth {
		n.dropped++
		return
	}
	d.dest = n.txDest
	if n.tracer != nil {
		d.jid = n.tracer.NICDescQueued(d.offset, d.length, d.viaDMA)
	}
	n.fifo = append(n.fifo, d)
}

// ---- bus mastering (sim.Machine.AddNIC) ----

// now returns the most recently observed bus cycle (register writes land
// during bus.Tick, one call before the device tick, so this is at most one
// cycle stale — fine for the timestamps it feeds).
func (n *NIC) now() uint64 { return n.lastCycle }

// TickBus advances transmission and DMA by one bus cycle.
func (n *NIC) TickBus(b *bus.Bus) {
	n.lastCycle = b.Cycle()
	// Injected device latency burst: the whole device (DMA, transmit,
	// interrupt delivery) freezes; register accesses still complete, so
	// software can keep polling status while the device is slow.
	if n.stallLeft > 0 {
		n.stallLeft--
		return
	}
	if n.stallHook != nil {
		if d := n.stallHook(); d > 0 {
			n.stallLeft = d - 1 // this frozen tick is the first of d
			return
		}
	}
	// Injected FIFO backpressure window: pushes are refused (counted as
	// drops) while open, but the device otherwise runs.
	if n.bpLeft > 0 {
		n.bpLeft--
	} else if n.bpHook != nil {
		if w := n.bpHook(); w > 0 {
			n.bpLeft = w
		}
	}
	// DMA engine: stream bursts from main memory into the packet buffer.
	if n.dma == dmaReading && !n.dmaInFly {
		if n.dmaOff >= n.dmaLen {
			// Transfer complete: queue the descriptor.
			n.pushDescriptor(txDesc{offset: 0, length: n.dmaLen,
				pushed: n.dmaPushed, viaDMA: true, srcPA: n.dmaSrc})
			n.dma = dmaIdle
		} else {
			size := n.cfg.DMABurst
			if rem := n.dmaLen - n.dmaOff; rem < size {
				size = alignSize(rem)
			}
			// Respect natural alignment of the source address.
			for size > 1 && (n.dmaSrc+uint64(n.dmaOff))%uint64(size) != 0 {
				size >>= 1
			}
			n.dmaTxn.Addr = n.dmaSrc + uint64(n.dmaOff)
			n.dmaTxn.Size = size
			if b.TryIssue(&n.dmaTxn) {
				n.dmaInFly = true
			}
		}
	}
	// Transmit path.
	if n.sending {
		if b.Cycle() >= n.sendDone {
			data := n.packetData(n.cur.length)
			copy(data, n.packetBuf[n.cur.offset:])
			n.packets = append(n.packets, Packet{
				Data:     data,
				SentAt:   b.Cycle(),
				ViaDMA:   n.cur.viaDMA,
				SrcAddr:  n.cur.srcPA,
				FIFOPush: n.cur.pushed,
				JID:      n.cur.jid,
				Dest:     n.cur.dest,
			})
			n.sending = false
			n.intPending = true
			if n.tracer != nil && n.cur.jid != 0 {
				n.tracer.NICTxDone(n.cur.jid)
			}
			if n.Interrupt != nil {
				n.Interrupt()
			}
		}
		return
	}
	if len(n.fifo) > 0 {
		n.cur = n.fifo[0]
		// Shift down rather than reslice, so pushes reuse the backing.
		n.fifo = n.fifo[:copy(n.fifo, n.fifo[1:])]
		n.sending = true
		n.sendDone = b.Cycle() + uint64(n.cfg.WireCyclesPerByte*n.cur.length)
		if n.tracer != nil && n.cur.jid != 0 {
			n.tracer.NICTxStarted(n.cur.jid)
		}
	}
}

// packetSlab is the chunk size sent packets' Data is cut from.
const packetSlab = 4096

// packetData returns a length-byte buffer for a sent packet's Data, cut
// from the current slab with its capacity capped, so no two packets
// share writable bytes.
func (n *NIC) packetData(length int) []byte {
	if len(n.slab) < length {
		n.slab = make([]byte, max(packetSlab, length))
	}
	data := n.slab[:length:length]
	n.slab = n.slab[length:]
	return data
}

// Quiet reports whether TickBus would only note the bus cycle until an
// outside input arrives: no DMA transfer, transmission, queued
// descriptor, injected stall or backpressure window, and no fault hook,
// which draws on every tick. A machine may then skip the device's ticks
// and catch it up with SkipTo.
func (n *NIC) Quiet() bool {
	return n.dma == dmaIdle && !n.dmaInFly && !n.sending && len(n.fifo) == 0 &&
		n.stallLeft == 0 && n.bpLeft == 0 && n.stallHook == nil && n.bpHook == nil
}

// SkipTo records that the device's ticks were skipped while it was
// Quiet, the last of them at bus cycle busCycle: the cycle it would have
// noted, so descriptor and DMA stamps come out as if it had been ticked.
func (n *NIC) SkipTo(busCycle uint64) { n.lastCycle = busCycle }

// Idle reports whether no transmission or DMA work is pending.
func (n *NIC) Idle() bool {
	return !n.sending && len(n.fifo) == 0 && n.dma == dmaIdle && !n.dmaInFly
}

// alignSize rounds down to the largest power of two ≤ v (min 1).
func alignSize(v int) int {
	s := 1
	for s*2 <= v {
		s *= 2
	}
	return s
}

func putLE(dst []byte, v uint64) {
	for i := range dst {
		dst[i] = byte(v >> (8 * i))
	}
}

func leUint(data []byte) uint64 {
	var v uint64
	for i := len(data) - 1; i >= 0; i-- {
		v = v<<8 | uint64(data[i])
	}
	return v
}

// String describes the NIC configuration.
func (n *NIC) String() string {
	return fmt.Sprintf("nic(base=%#x fifo=%d dma=%dB)", n.base, n.cfg.FIFODepth, n.cfg.DMABurst)
}

var _ mem.Target = (*NIC)(nil)
