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
// Clock-domain alignment: every stamp is taken in its own node's cycle
// domain; SetAlign records a per-node offset to the shared cluster
// timeline (zero in today's cluster, whose lookahead barrier keeps every
// node on the cluster clock). All histogram deltas and merged dumps use
// the aligned stamps, so the per-hop latencies telescope exactly to the
// e2e latency regardless of skew.
//
// Like the journey tracer, ctrace is built for the zero-alloc tick loop:
// spans live in a preallocated ring, stamps are array writes, and the
// histograms have fixed power-of-two buckets.
package ctrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"csbsim/internal/obs/counters"
)

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

// HopNames lists the six stamps in order; merged dumps and the Perfetto
// export render hops as deltas between consecutive aligned stamps.
var HopNames = [6]string{"fifo_push", "tx_start", "wire_depart", "wire_arrive", "rx_enqueue", "rx_drain"}

// Config parameterizes the tracer.
type Config struct {
	// Window is the count of most-recent spans retained for the merged
	// dump (default 4096). Histograms and counters always cover the whole
	// run regardless of the window.
	Window int
}

// DefaultConfig returns the default retention window.
func DefaultConfig() Config { return Config{Window: 4096} }

// Tracer assigns trace IDs, stamps wire and RX hops, aligns the two clock
// domains, and aggregates per-hop latency histograms. One tracer serves
// the whole cluster; internal/cluster drives it from the pump/deliver
// path and the NICs' RX drain hooks.
type Tracer struct {
	cfg  Config
	ring []Span
	next uint64

	started   uint64
	completed uint64
	dropped   uint64 // spans closed as fabric-dropped (wire faults, outages, degraded routes)
	stale     uint64 // stamps dropped: span already evicted from the ring

	// offsets maps node name → cycles added to that node's stamps to land
	// them on the shared cluster timeline.
	offsets map[string]int64

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
func New(cfg Config, reg *counters.Registry) (*Tracer, error) {
	if cfg.Window == 0 {
		cfg.Window = 4096
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("ctrace: negative window")
	}
	if reg == nil {
		reg = counters.NewRegistry()
	}
	t := &Tracer{
		cfg:     cfg,
		ring:    make([]Span, cfg.Window),
		offsets: make(map[string]int64),
	}
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
	return t, nil
}

// SetAlign records a node's clock offset to the shared cluster timeline.
// Call before running; today's cluster passes 0 for every node.
//
//csb:barrier rewrites the offset table every merged stamp reads
func (t *Tracer) SetAlign(node string, offset int64) { t.offsets[node] = offset }

// E2EHistogram returns the end-to-end (fifo_push → rx_drain, aligned)
// latency histogram.
func (t *Tracer) E2EHistogram() *counters.Histogram { return t.hE2E }

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
// never complete. Partial dumps then show the loss explicitly instead of
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

// Dropped returns the number of spans closed as fabric-dropped.
func (t *Tracer) Dropped() uint64 { return t.dropped }

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
// and e2e latencies (aligned) land in the histograms.
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
	fromOff, toOff := t.offsets[s.From], t.offsets[s.To]
	fifo := uint64(int64(s.FIFOPush) + fromOff)
	txs := uint64(int64(s.TxStart) + fromOff)
	dep := uint64(int64(s.WireDepart) + fromOff)
	arr := uint64(int64(s.WireArrive) + toOff)
	enq := uint64(int64(s.RxEnqueue) + toOff)
	drn := uint64(int64(s.RxDrain) + toOff)
	t.hSend.Record(txs - fifo)
	t.hTx.Record(dep - txs)
	t.hWire.Record(arr - dep)
	t.hRx.Record(enq - arr)
	t.hDrain.Record(drn - enq)
	t.hE2E.Record(drn - fifo)
}

// MergedSpan is one span on the shared cluster timeline: every stamp has
// its node's clock offset applied, and E2E is rx_drain − fifo_push. The
// per-hop deltas of consecutive stamps telescope exactly to E2E.
type MergedSpan struct {
	Span
	E2E uint64 `json:"e2e"`
}

// aligned returns the span with both nodes' offsets applied.
func (t *Tracer) aligned(s Span) MergedSpan {
	fromOff, toOff := t.offsets[s.From], t.offsets[s.To]
	s.FIFOPush = uint64(int64(s.FIFOPush) + fromOff)
	s.TxStart = uint64(int64(s.TxStart) + fromOff)
	s.WireDepart = uint64(int64(s.WireDepart) + fromOff)
	if s.DropCycle != 0 {
		s.DropCycle = uint64(int64(s.DropCycle) + fromOff)
	}
	if s.WireArrive != 0 {
		s.WireArrive = uint64(int64(s.WireArrive) + toOff)
	}
	if s.RxEnqueue != 0 {
		s.RxEnqueue = uint64(int64(s.RxEnqueue) + toOff)
	}
	if s.RxDrain != 0 {
		s.RxDrain = uint64(int64(s.RxDrain) + toOff)
	}
	m := MergedSpan{Span: s}
	if s.Done {
		m.E2E = s.RxDrain - s.FIFOPush
	}
	return m
}

// Retained returns every span still in the ring (the most recent Window),
// aligned, ordered by trace ID (which is also departure order — the
// cluster pumps deterministically).
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
			out = append(out, t.aligned(s))
		}
	}
	return out
}

// Dump is the on-disk merged trace: run totals, per-node clock offsets,
// the per-hop and e2e histograms, and the retained spans on the shared
// timeline. cmd/csbcluster writes it; map keys marshal sorted, so equal
// tracer states produce byte-identical dumps.
type Dump struct {
	ClockOffsets map[string]int64            `json:"clock_offsets"`
	Started      uint64                      `json:"started"`
	Completed    uint64                      `json:"completed"`
	Dropped      uint64                      `json:"dropped"`
	StaleDrops   uint64                      `json:"stale_drops"`
	Histograms   map[string]counters.Summary `json:"histograms"`
	Spans        []MergedSpan                `json:"spans"`
}

// BuildDump assembles the dump structure.
func (t *Tracer) BuildDump() *Dump {
	d := &Dump{
		ClockOffsets: make(map[string]int64, len(t.offsets)),
		Started:      t.started,
		Completed:    t.completed,
		Dropped:      t.dropped,
		StaleDrops:   t.stale,
		Histograms:   make(map[string]counters.Summary, 6),
		Spans:        t.Retained(),
	}
	for n, off := range t.offsets { //csb:orderless — map copy
		d.ClockOffsets[n] = off
	}
	for _, h := range []*counters.Histogram{t.hSend, t.hTx, t.hWire, t.hRx, t.hDrain, t.hE2E} {
		d.Histograms[h.Name()] = h.Summary()
	}
	return d
}

// WriteTo writes the merged dump as indented JSON.
func (t *Tracer) WriteTo(w io.Writer) (int64, error) {
	data, err := json.MarshalIndent(t.BuildDump(), "", "  ")
	if err != nil {
		return 0, err
	}
	data = append(data, '\n')
	n, err := w.Write(data)
	return int64(n), err
}

// ---- Perfetto export ----

// traceEvent is the Chrome trace-event subset the two-timeline export
// emits (mirrors internal/obs but stays self-contained: the cluster view
// has its own process-per-node layout).
type traceEvent struct {
	Name   string         `json:"name"`
	Cat    string         `json:"cat,omitempty"`
	Ph     string         `json:"ph"`
	Ts     uint64         `json:"ts"`
	Dur    uint64         `json:"dur,omitempty"`
	PID    int            `json:"pid"`
	TID    int            `json:"tid"`
	FlowID int            `json:"id,omitempty"`
	BP     string         `json:"bp,omitempty"`
	Args   map[string]any `json:"args,omitempty"`
}

const (
	tidTx = 1
	tidRx = 2
)

// WritePerfetto renders the retained spans as a two-timeline Chrome
// trace: one process per node (tx and rx threads), a slice per packet on
// each side of the wire, and a flow arrow crossing from the sender's
// wire_depart to the receiver's wire_arrive. Load at ui.perfetto.dev.
func (t *Tracer) WritePerfetto(w io.Writer) (int64, error) {
	spans := t.Retained()

	// Deterministic process numbering: sorted node names.
	nodeSet := make(map[string]bool)
	for _, s := range spans {
		nodeSet[s.From] = true
		nodeSet[s.To] = true
	}
	names := make([]string, 0, len(nodeSet))
	for n := range nodeSet { //csb:orderless — collects keys, sorted below
		names = append(names, n)
	}
	sort.Strings(names)
	pid := make(map[string]int, len(names))
	events := make([]traceEvent, 0, 3*len(names)+5*len(spans))
	for i, n := range names {
		pid[n] = 1 + i
		events = append(events,
			traceEvent{Name: "process_name", Ph: "M", PID: 1 + i,
				Args: map[string]any{"name": "node " + n}},
			traceEvent{Name: "thread_name", Ph: "M", PID: 1 + i, TID: tidTx,
				Args: map[string]any{"name": "nic tx"}},
			traceEvent{Name: "thread_name", Ph: "M", PID: 1 + i, TID: tidRx,
				Args: map[string]any{"name": "nic rx"}})
	}

	for _, s := range spans {
		txEnd := s.WireDepart
		sendSlice := traceEvent{
			Name: fmt.Sprintf("pkt %d → %s", s.TraceID, s.To),
			Ph:   "X", Ts: s.FIFOPush, Dur: max1(txEnd - s.FIFOPush),
			PID: pid[s.From], TID: tidTx,
			Args: map[string]any{
				"trace_id": s.TraceID, "size": s.Size,
				"fifo_push": s.FIFOPush, "tx_start": s.TxStart, "wire_depart": s.WireDepart,
			},
		}
		if s.Dropped {
			sendSlice.Args["dropped_at"] = s.DropCycle
		}
		events = append(events, sendSlice)
		if s.WireArrive == 0 {
			continue // still on the wire: sender side only
		}
		rxEnd := s.WireArrive
		for _, c := range []uint64{s.RxEnqueue, s.RxDrain} {
			if c > rxEnd {
				rxEnd = c
			}
		}
		rxArgs := map[string]any{
			"trace_id": s.TraceID, "size": s.Size, "wire_arrive": s.WireArrive,
		}
		if s.RxEnqueue != 0 {
			rxArgs["rx_enqueue"] = s.RxEnqueue
		}
		if s.RxDrain != 0 {
			rxArgs["rx_drain"] = s.RxDrain
		}
		if s.Done {
			rxArgs["e2e"] = s.E2E
		}
		events = append(events, traceEvent{
			Name: fmt.Sprintf("pkt %d ← %s", s.TraceID, s.From),
			Ph:   "X", Ts: s.WireArrive, Dur: max1(rxEnd - s.WireArrive),
			PID: pid[s.To], TID: tidRx, Args: rxArgs,
		})
		// The wire crossing: a flow arrow from the sender's departure to
		// the receiver's arrival, binding the two timelines.
		flow := int(s.TraceID)
		events = append(events,
			traceEvent{Name: "wire", Cat: "wire", Ph: "s", Ts: s.WireDepart,
				PID: pid[s.From], TID: tidTx, FlowID: flow},
			traceEvent{Name: "wire", Cat: "wire", Ph: "f", BP: "e", Ts: s.WireArrive,
				PID: pid[s.To], TID: tidRx, FlowID: flow})
	}

	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ns"}
	data, err := json.Marshal(doc)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	return int64(n), err
}

func max1(v uint64) uint64 {
	if v == 0 {
		return 1
	}
	return v
}
