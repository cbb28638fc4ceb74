// Package ctrace is the cluster-aware distributed-tracing layer on top of
// the PR 5 store-journey tracer: where internal/obs/journey follows a
// store to the sender's NIC tx_done, ctrace follows the *packet* across
// the machine boundary — onto the wire, into the far node's RX queue, and
// through the software pickup — and merges the two nodes' clock domains
// into one end-to-end send→receive journey with per-hop histograms.
//
// Each transmitted packet gets a trace ID keyed by its flight (the
// cluster's in-flight delivery record); the ID is a tracing side channel,
// never guest-visible. Six stamps make a span:
//
//	fifo_push, tx_start, wire_depart   — sender's cycle domain
//	wire_arrive, rx_enqueue, rx_drain  — receiver's cycle domain
//
// The first two are grafted from the sender's NIC-descriptor journey (the
// packet carries its journey ID); wire_depart is stamped when the cluster
// pumps the packet into flight, wire_arrive when the wire latency elapses,
// rx_enqueue when the words land in the receiver's RX queue, and rx_drain
// when software pops the span's last word.
//
// Clock domains: every stamp is taken in its own node's cycle domain,
// and the cluster's lookahead barrier keeps every node on the cluster
// clock, so the domains coincide and stamps from both nodes subtract
// directly. The per-hop latencies telescope exactly to the e2e latency.
//
// Like the journey tracer, ctrace is built for the zero-alloc tick loop:
// spans live in a preallocated ring, stamps are array writes, and the
// histograms have fixed power-of-two buckets.
package ctrace

import "csbsim/internal/obs/counters"

// Span is one packet's crossing, stamps in node-local cycle domains
// (0 = hop not reached).
type Span struct {
	TraceID uint64 `json:"trace_id"`
	From    string `json:"from"`
	To      string `json:"to"`
	// JID is the sender-side NIC descriptor journey ID (0 when the sender
	// had no journey tracer attached).
	JID  uint64 `json:"jid,omitempty"`
	Size uint32 `json:"size"`
	Done bool   `json:"done"`

	// Dropped marks a packet the fabric discarded (injected wire fault,
	// link outage, or degraded destination); DropCycle is the routing
	// cycle it was lost at (sender domain). A dropped span never
	// completes and contributes to no latency histogram.
	Dropped   bool   `json:"dropped,omitempty"`
	DropCycle uint64 `json:"drop_cycle,omitempty"`

	FIFOPush   uint64 `json:"fifo_push"`   // sender domain
	TxStart    uint64 `json:"tx_start"`    // sender domain
	WireDepart uint64 `json:"wire_depart"` // sender domain
	WireArrive uint64 `json:"wire_arrive"` // receiver domain
	RxEnqueue  uint64 `json:"rx_enqueue"`  // receiver domain
	RxDrain    uint64 `json:"rx_drain"`    // receiver domain
}

// HopNames lists the six stamps in order; `csbrec journeys` renders hops
// as deltas between consecutive stamps.
var HopNames = [6]string{"fifo_push", "tx_start", "wire_depart", "wire_arrive", "rx_enqueue", "rx_drain"}

// window is the count of most-recent spans the ring retains for the
// recording. Histograms and counters always cover the whole run.
const window = 4096

// Tracer assigns trace IDs, stamps wire and RX hops, and aggregates
// per-hop latency histograms. One tracer serves
// the whole cluster; internal/cluster drives it from the pump/deliver
// path and the NICs' RX drain hooks.
type Tracer struct {
	ring []Span
	next uint64

	started   uint64
	completed uint64
	dropped   uint64 // spans closed as fabric-dropped (wire faults, outages, degraded routes)
	stale     uint64 // stamps dropped: span already evicted from the ring

	hSend  *counters.Histogram // fifo_push → tx_start (FIFO wait)
	hTx    *counters.Histogram // tx_start → wire_depart (serialization + pickup)
	hWire  *counters.Histogram // wire_depart → wire_arrive (flight time)
	hRx    *counters.Histogram // wire_arrive → rx_enqueue (RX staging)
	hDrain *counters.Histogram // rx_enqueue → rx_drain (software pickup)
	hE2E   *counters.Histogram // fifo_push → rx_drain
}

// New creates a tracer. Histograms and run counters are created in reg so
// they render uniformly in reports and recordings; reg may be nil
// for standalone use.
func New(reg *counters.Registry) *Tracer { return newTracer(window, reg) }

// newTracer creates a tracer whose ring retains the given number of
// spans.
func newTracer(window int, reg *counters.Registry) *Tracer {
	if reg == nil {
		reg = counters.NewRegistry()
	}
	t := &Tracer{ring: make([]Span, window)}
	t.hSend = reg.Histogram("ctrace/hop/fifo_wait")
	t.hTx = reg.Histogram("ctrace/hop/tx")
	t.hWire = reg.Histogram("ctrace/hop/wire")
	t.hRx = reg.Histogram("ctrace/hop/rx_enqueue")
	t.hDrain = reg.Histogram("ctrace/hop/drain")
	t.hE2E = reg.Histogram("ctrace/e2e")
	reg.Counter("ctrace/packets_started", func() uint64 { return t.started })
	reg.Counter("ctrace/packets_completed", func() uint64 { return t.completed })
	reg.Counter("ctrace/packets_dropped", func() uint64 { return t.dropped })
	reg.Counter("ctrace/stale_drops", func() uint64 { return t.stale })
	return t
}

// Started returns the number of spans opened.
func (t *Tracer) Started() uint64 { return t.started }

// Completed returns the number of spans fully drained.
func (t *Tracer) Completed() uint64 { return t.completed }

// slot returns the ring cell a trace ID lives in.
//
//csb:hotpath
func (t *Tracer) slot(id uint64) *Span {
	return &t.ring[(id-1)%uint64(len(t.ring))]
}

// PacketDeparted opens a span as the cluster pumps a transmitted packet
// into flight, grafting the sender-side NIC stamps (CPU cycles, sender
// domain), and returns the trace ID the flight carries.
//
//csb:hotpath
//csb:barrier mutates the shared span ring; called from routing at barriers
func (t *Tracer) PacketDeparted(from, to string, size uint32, jid, fifoPush, txStart, depart uint64) uint64 {
	t.next++
	id := t.next
	t.started++
	s := t.slot(id)
	*s = Span{
		TraceID: id, From: from, To: to, JID: jid, Size: size,
		FIFOPush: fifoPush, TxStart: txStart, WireDepart: depart,
	}
	return id
}

// stamp fetches a live span, counting and dropping stale IDs.
//
//csb:hotpath
func (t *Tracer) stamp(id uint64) *Span {
	if id == 0 {
		return nil
	}
	s := t.slot(id)
	if s.TraceID != id {
		t.stale++
		return nil
	}
	return s
}

// PacketDropped closes a span as lost to the fabric (injected wire
// fault, link outage window, or a degraded destination): the span is
// marked dropped at the given routing cycle (sender domain) and will
// never complete. A recording then shows the loss explicitly instead of
// an eternally open span.
//
//csb:hotpath
//csb:barrier mutates the shared span ring; called from routing at barriers
func (t *Tracer) PacketDropped(id, cycle uint64) {
	if s := t.stamp(id); s != nil {
		s.Dropped = true
		s.DropCycle = cycle
		t.dropped++
	}
}

// PacketArrived stamps the wire latency elapsing, in the receiver's
// cycle domain.
//
//csb:hotpath
//csb:barrier mutates the shared span ring; replayed from node logs at barriers
func (t *Tracer) PacketArrived(id, recvCycle uint64) {
	if s := t.stamp(id); s != nil {
		s.WireArrive = recvCycle
	}
}

// PacketEnqueued stamps the packet's words landing in the receiver's RX
// queue.
//
//csb:hotpath
//csb:barrier mutates the shared span ring; replayed from node logs at barriers
func (t *Tracer) PacketEnqueued(id, recvCycle uint64) {
	if s := t.stamp(id); s != nil {
		s.RxEnqueue = recvCycle
	}
}

// PacketDrained completes a span: software popped the last word. Per-hop
// and e2e latencies land in the histograms.
//
//csb:hotpath
//csb:barrier updates shared histograms and the span ring at barriers
func (t *Tracer) PacketDrained(id, recvCycle uint64) {
	s := t.stamp(id)
	if s == nil {
		return
	}
	s.RxDrain = recvCycle
	s.Done = true
	t.completed++
	t.hSend.Record(s.TxStart - s.FIFOPush)
	t.hTx.Record(s.WireDepart - s.TxStart)
	t.hWire.Record(s.WireArrive - s.WireDepart)
	t.hRx.Record(s.RxEnqueue - s.WireArrive)
	t.hDrain.Record(s.RxDrain - s.RxEnqueue)
	t.hE2E.Record(s.RxDrain - s.FIFOPush)
}

// MergedSpan is one span on the shared cluster timeline with its
// end-to-end latency: E2E is rx_drain − fifo_push, and the per-hop deltas
// of consecutive stamps telescope exactly to it.
type MergedSpan struct {
	Span
	E2E uint64 `json:"e2e"`
}

// merged returns the span with its end-to-end latency.
func merged(s Span) MergedSpan {
	m := MergedSpan{Span: s}
	if s.Done {
		m.E2E = s.RxDrain - s.FIFOPush
	}
	return m
}

// Retained returns every span still in the ring (the most recent window),
// ordered by trace ID (which is also departure order — the cluster pumps
// deterministically).
func (t *Tracer) Retained() []MergedSpan {
	var out []MergedSpan
	last := t.next
	first := uint64(1)
	if last > uint64(len(t.ring)) {
		first = last - uint64(len(t.ring)) + 1
	}
	for id := first; id <= last; id++ {
		s := t.ring[(id-1)%uint64(len(t.ring))]
		if s.TraceID == id {
			out = append(out, merged(s))
		}
	}
	return out
}
