// Package journey traces the memory-system half of an I/O store's life:
// where the paper's PR-1 observability layer instruments the CPU pipeline
// up to retire, this package follows the store *after* retire — through
// the uncached buffer or the conditional store buffer, across the system
// bus, and into the device — stamping a cycle timestamp at every hop and
// folding the per-hop latencies into fixed-bucket histograms. It is the
// instrumentation behind the paper's §3 latency decomposition (processor
// stall vs. buffer occupancy vs. bus transfer vs. device acceptance).
//
// Four journey kinds are traced:
//
//   - uncached stores: retire/UB-enqueue → UB dequeue (send stage) → bus
//     grant → bus complete (the write landing at the device or memory is
//     the device-acceptance point of the burst);
//   - CSB combining stores: retire/CSB insert-or-combine → successful
//     conditional flush (the ack; a failed flush aborts the journeys, a
//     busy CSB shows up as retried flush attempts in the StallBusy
//     counter) → bus grant of the line burst → bus complete;
//   - NIC transmit descriptors: FIFO accept → transmit start → transmit
//     done (wire serialization included);
//   - wire crossings (§2's cluster setting): one packet from the
//     sender's FIFO accept and transmit start, onto the wire, off it at
//     the receiver, into its RX queue, and out to software.
//
// A machine's tracer (NewTracer) follows the first three kinds, stamping
// each hop with the machine's clock. A cluster's tracer (NewWireTracer)
// follows only wire journeys; their stamps carry explicit cycles,
// because the cluster replays them from the nodes' event logs at its
// barriers. The cluster's lookahead barrier keeps every node on the
// cluster clock, so stamps from both nodes subtract directly and a wire
// journey's hops telescope exactly to its end-to-end latency.
//
// The tracer is built for the zero-alloc tick loop: journeys live in
// per-kind preallocated rings, stamps are array writes, and histograms
// have fixed power-of-two buckets — attaching a tracer changes no
// simulated timing and performs no steady-state heap allocations.
package journey

import (
	"fmt"
	"sort"

	"csbsim/internal/obs/counters"
)

// Kind labels what a journey follows.
type Kind uint8

const (
	// KindUncachedStore follows one uncached store through the uncached
	// buffer and across the bus.
	KindUncachedStore Kind = iota
	// KindCSBStore follows one combining store through the CSB, its
	// conditional flush, and the line burst.
	KindCSBStore
	// KindNICDesc follows one NIC transmit descriptor from FIFO accept
	// to the end of transmission.
	KindNICDesc
	// KindWire follows one packet from the sender's FIFO accept across
	// the cluster fabric to the receiver's software pickup.
	KindWire
	numKinds
)

var kindNames = [numKinds]string{"uncached_store", "csb_store", "nic_descriptor", "wire"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind returns the kind a name (Kind.String) stands for.
func ParseKind(name string) (Kind, error) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("journey: unknown kind %q", name)
}

// Hop indexes a journey's timestamp array. The slots have a
// kind-specific meaning; HopNames renders them.
type Hop uint8

const (
	// HopStart is the journey's first stamp: the retiring store accepted
	// by the UB or CSB, or the descriptor accepted by the NIC FIFO.
	HopStart Hop = iota
	// HopDepart is the layer-exit stamp: UB entry popped into the send
	// stage, CSB conditional flush acknowledged (line queued for the
	// bus), or NIC transmission started.
	HopDepart
	// HopBusGrant is the bus-arbitration win of the first transaction
	// carrying the journey's data (unused for NIC descriptors).
	HopBusGrant
	// HopComplete ends the journey: the last bus beat (which is also the
	// cycle the write lands at the device — device acceptance), or the
	// NIC transmission completing.
	HopComplete
	// HopRxEnqueue is a wire journey's packet entering the receiver's RX
	// queue.
	HopRxEnqueue
	// HopRxDrain ends a wire journey: software pops the packet's last
	// word.
	HopRxDrain
	// NumHops sizes the timestamp array.
	NumHops
)

// A wire journey stamps its crossing in the bus slots: the cluster
// pumping the packet into flight, and the wire latency elapsing.
const (
	HopWireDepart = HopBusGrant
	HopWireArrive = HopComplete
)

// Last returns the hop that ends a journey of the kind.
func (k Kind) Last() Hop {
	if k == KindWire {
		return HopRxDrain
	}
	return HopComplete
}

// hopNames maps kind → per-slot labels ("" = slot unused for the kind).
var hopNames = [numKinds][NumHops]string{
	KindUncachedStore: {"retire", "ub_dequeue", "bus_grant", "bus_complete"},
	KindCSBStore:      {"retire", "flush_ok", "bus_grant", "bus_complete"},
	KindNICDesc:       {"fifo_push", "tx_start", "", "tx_done"},
	KindWire:          {"fifo_push", "tx_start", "wire_depart", "wire_arrive", "rx_enqueue", "rx_drain"},
}

// HopNames returns the kind's labels for the timestamp slots; the
// empty string marks a slot the kind never stamps.
func HopNames(k Kind) [NumHops]string {
	if int(k) < len(hopNames) {
		return hopNames[k]
	}
	return [NumHops]string{}
}

// Journey is one traced store, descriptor or packet. All timestamps are
// CPU cycles on the shared timeline; a zero stamp means the hop was not
// reached.
type Journey struct {
	ID   uint64
	Kind Kind
	// Node is the node the journey ran on, a wire journey's sender. A
	// machine's tracer leaves it empty; a recording fills it in with the
	// tracer's source name.
	Node string
	// To is a wire journey's receiver.
	To string
	// Link is the ID of the sender's nic_descriptor journey a wire
	// journey continues (0 when the sender's was not traced).
	Link      uint64
	Addr      uint64
	Size      uint32
	Coalesced bool
	// Aborted marks a journey that will never complete: a CSB sequence
	// lost to a failed flush, or a packet the fabric dropped.
	Aborted bool
	Done    bool
	T       [NumHops]uint64
}

// E2E returns the end-to-end latency (0 until the journey completes).
func (j Journey) E2E() uint64 {
	if !j.Done {
		return 0
	}
	return j.T[j.Kind.Last()] - j.T[HopStart]
}

// Check reports the first invariant the journey breaks: a positive ID;
// for a wire journey, both nodes named and, once dropped, no stamp from
// the receiver; for a completed one, no abort and stamps that never
// decrease from hop to hop, so its hops telescope to its E2E.
func (j *Journey) Check() error {
	switch {
	case j.ID == 0:
		return fmt.Errorf("journey: %s journey with ID 0", j.Kind)
	case j.Kind == KindWire && (j.Node == "" || j.To == ""):
		return fmt.Errorf("journey: wire journey %d has no sender or receiver", j.ID)
	case j.Kind == KindWire && j.Aborted && j.T[HopWireArrive]|j.T[HopRxEnqueue]|j.T[HopRxDrain] != 0:
		return fmt.Errorf("journey: dropped wire journey %d has a receiver stamp", j.ID)
	case j.Done && j.Aborted:
		return fmt.Errorf("journey: %s journey %d is both completed and aborted", j.Kind, j.ID)
	case !j.Done:
		return nil
	}
	names := HopNames(j.Kind)
	prev := HopStart
	for h := HopDepart; h <= j.Kind.Last(); h++ {
		if names[h] == "" {
			continue
		}
		if j.T[h] < j.T[prev] {
			return fmt.Errorf("journey: %s journey %d: %s (%d) precedes %s (%d)",
				j.Kind, j.ID, names[h], j.T[h], names[prev], j.T[prev])
		}
		prev = h
	}
	return nil
}

// topN is how many slowest completed journeys of each kind are tracked
// exactly over the whole run.
const topN = 32

// window is the per-kind count of most-recent journeys the rings retain
// for the recording. Histograms and counters always cover the whole run.
const window = 4096

// Tracer assigns journey IDs, stamps hops, and aggregates per-hop
// latency histograms. A machine's tracer is attached to the uncached
// buffer, the CSB and the NIC by sim.Machine.AttachJourneys; a
// cluster's is driven by internal/cluster at its barriers.
//
// IDs are per-kind and contiguous in acceptance order, which is what
// lets the components pass (first, count) ranges instead of ID lists.
type Tracer struct {
	now func() uint64

	rings  [numKinds][]Journey // nil for a kind the tracer does not follow
	nextID [numKinds]uint64

	started   [numKinds]uint64
	completed [numKinds]uint64
	aborted   [numKinds]uint64
	stale     uint64 // stamps dropped: journey already evicted from its ring

	// slowest holds each followed kind's topN slowest completed
	// journeys (nil for a kind not followed), and slowMin the smallest
	// E2E each currently keeps, so that a kind of long journeys never
	// crowds a kind of short ones out.
	slowest [numKinds][]Journey
	slowMin [numKinds]uint64

	hUBWait     *counters.Histogram
	hCSBCombine *counters.Histogram
	hBusArb     *counters.Histogram
	hBusXfer    *counters.Histogram
	hDevFIFO    *counters.Histogram
	hDevTx      *counters.Histogram
	hWire       [NumHops]*counters.Histogram // a wire journey's hop h-1 → h
	hE2E        [numKinds]*counters.Histogram
}

// NewTracer creates a machine's tracer, following uncached stores, CSB
// stores and NIC descriptors and stamping with the given clock (the
// machine's CPU-cycle reader). Histograms and run counters are created
// in reg so they render uniformly in the machine report; reg may be nil
// for standalone use.
func NewTracer(reg *counters.Registry, now func() uint64) (*Tracer, error) {
	if now == nil {
		return nil, fmt.Errorf("journey: nil clock")
	}
	return newTracer(window, reg, now), nil
}

// WireTracer is a cluster's tracer: a Tracer that follows only wire
// journeys, whose stamps carry their own cycles. It is its own type so
// that the phase analyzer can tell the cluster's one tracer, shared
// across nodes and touched only at barriers, from a machine's.
type WireTracer struct{ *Tracer }

// NewWireTracer creates a cluster's tracer. Its histograms and run
// counters are created in reg (nil for standalone use).
func NewWireTracer(reg *counters.Registry) *WireTracer {
	return &WireTracer{newTracer(window, reg, nil)}
}

// newTracer creates a tracer whose rings retain the given number of
// journeys per kind: a machine's with a clock, a cluster's without.
func newTracer(window int, reg *counters.Registry, now func() uint64) *Tracer {
	t := &Tracer{now: now}
	if reg == nil {
		reg = counters.NewRegistry()
	}
	kinds := []Kind{KindWire}
	if now != nil {
		kinds = []Kind{KindUncachedStore, KindCSBStore, KindNICDesc}
		t.hUBWait = reg.Histogram("journey/ub/queue_wait")
		t.hCSBCombine = reg.Histogram("journey/csb/combine_window")
		t.hBusArb = reg.Histogram("journey/bus/arb_wait")
		t.hBusXfer = reg.Histogram("journey/bus/xfer")
		t.hDevFIFO = reg.Histogram("journey/device/fifo_wait")
		t.hDevTx = reg.Histogram("journey/device/tx")
	} else {
		for h := HopDepart; h < NumHops; h++ {
			t.hWire[h] = reg.Histogram("journey/wire/" + hopNames[KindWire][h])
		}
	}
	for _, k := range kinds {
		t.rings[k] = make([]Journey, window)
		t.slowest[k] = make([]Journey, 0, topN)
		t.hE2E[k] = reg.Histogram("journey/e2e/" + k.String())
	}
	for _, k := range kinds {
		reg.Counter("journey/"+k.String()+"/started", func() uint64 { return t.started[k] })
		reg.Counter("journey/"+k.String()+"/completed", func() uint64 { return t.completed[k] })
		reg.Counter("journey/"+k.String()+"/aborted", func() uint64 { return t.aborted[k] })
	}
	reg.Counter("journey/stale_drops", func() uint64 { return t.stale })
	return t
}

// slot returns the ring cell a journey ID lives in (its content is only
// that journey's while the ID check holds).
//
//csb:hotpath
func (t *Tracer) slot(k Kind, id uint64) *Journey {
	return &t.rings[k][(id-1)%uint64(len(t.rings[k]))]
}

// begin opens a journey at the clock's cycle.
//
//csb:hotpath
func (t *Tracer) begin(k Kind, addr uint64, size int, coalesced bool) uint64 {
	j := t.open(k, t.now())
	j.Addr, j.Size, j.Coalesced = addr, uint32(size), coalesced
	return j.ID
}

// open starts the kind's next journey, stamping HopStart at cycle.
//
//csb:hotpath
func (t *Tracer) open(k Kind, cycle uint64) *Journey {
	t.nextID[k]++
	id := t.nextID[k]
	t.started[k]++
	j := t.slot(k, id)
	*j = Journey{ID: id, Kind: k}
	j.T[HopStart] = cycle
	return j
}

// stamp records a hop timestamp; it returns nil when the journey has
// already been evicted from its ring (the stamp is counted and dropped).
//
//csb:hotpath
func (t *Tracer) stamp(k Kind, id uint64, h Hop, cycle uint64) *Journey {
	j := t.slot(k, id)
	if j.ID != id {
		t.stale++
		return nil
	}
	j.T[h] = cycle
	return j
}

// stampRange stamps a contiguous ID range.
//
//csb:hotpath
func (t *Tracer) stampRange(k Kind, first uint64, count int, h Hop) {
	cycle := t.now()
	for i := 0; i < count; i++ {
		t.stamp(k, first+uint64(i), h, cycle)
	}
}

// finish completes a journey: records its per-hop latencies into the
// layer histograms and tracks the slowest set.
//
//csb:hotpath
func (t *Tracer) finish(j *Journey) {
	j.Done = true
	t.completed[j.Kind]++
	switch j.Kind {
	case KindUncachedStore:
		t.hUBWait.Record(j.T[HopDepart] - j.T[HopStart])
		t.hBusArb.Record(j.T[HopBusGrant] - j.T[HopDepart])
		t.hBusXfer.Record(j.T[HopComplete] - j.T[HopBusGrant])
	case KindCSBStore:
		t.hCSBCombine.Record(j.T[HopDepart] - j.T[HopStart])
		t.hBusArb.Record(j.T[HopBusGrant] - j.T[HopDepart])
		t.hBusXfer.Record(j.T[HopComplete] - j.T[HopBusGrant])
	case KindNICDesc:
		t.hDevFIFO.Record(j.T[HopDepart] - j.T[HopStart])
		t.hDevTx.Record(j.T[HopComplete] - j.T[HopDepart])
	case KindWire:
		for h := HopDepart; h < NumHops; h++ {
			t.hWire[h].Record(j.T[h] - j.T[h-1])
		}
	}
	e2e := j.E2E()
	t.hE2E[j.Kind].Record(e2e)
	t.noteSlow(j, e2e)
}

// noteSlow keeps the topN slowest completed journeys of j's kind (exact
// over the whole run). The fixed-capacity slices never reallocate.
//
//csb:hotpath
func (t *Tracer) noteSlow(j *Journey, e2e uint64) {
	k := j.Kind
	s := t.slowest[k]
	if len(s) < cap(s) {
		s = append(s, *j)
		t.slowest[k] = s
		if len(s) == 1 || e2e < t.slowMin[k] {
			t.slowMin[k] = e2e
		}
		return
	}
	if e2e <= t.slowMin[k] {
		return
	}
	for i := range s {
		if s[i].E2E() == t.slowMin[k] {
			s[i] = *j
			break
		}
	}
	t.recomputeSlowMin(k)
}

//csb:hotpath
func (t *Tracer) recomputeSlowMin(k Kind) {
	least := ^uint64(0)
	for i := range t.slowest[k] {
		least = min(least, t.slowest[k][i].E2E())
	}
	t.slowMin[k] = least
}

// abortRange marks a journey range failed (CSB conflict, flush failure,
// dropped packet). Aborted journeys keep the stamps they collected and
// stay in the ring for the recording, but contribute to no latency
// histogram.
//
//csb:hotpath
func (t *Tracer) abortRange(k Kind, first uint64, count int) {
	for i := 0; i < count; i++ {
		id := first + uint64(i)
		j := t.slot(k, id)
		if j.ID != id {
			t.stale++
			continue
		}
		j.Aborted = true
		t.aborted[k]++
	}
}

// ---- uncached-buffer hops (uncbuf.Buffer.AttachTracer) ----

// UBStoreAccepted opens an uncached-store journey at retire/enqueue.
//
//csb:hotpath
func (t *Tracer) UBStoreAccepted(addr uint64, size int, coalesced bool) uint64 {
	return t.begin(KindUncachedStore, addr, size, coalesced)
}

// UBEntryDeparted stamps an entry's stores leaving the queue for the
// send stage.
//
//csb:hotpath
func (t *Tracer) UBEntryDeparted(first uint64, count int) {
	t.stampRange(KindUncachedStore, first, count, HopDepart)
}

// UBBusGranted stamps the bus accepting the entry's first transaction.
//
//csb:hotpath
func (t *Tracer) UBBusGranted(first uint64, count int) {
	t.stampRange(KindUncachedStore, first, count, HopBusGrant)
}

// UBEntryDone completes the entry's journeys: its last transaction's
// final beat has passed and the write has landed at the target.
//
//csb:hotpath
func (t *Tracer) UBEntryDone(first uint64, count int) {
	for i := 0; i < count; i++ {
		if j := t.stamp(KindUncachedStore, first+uint64(i), HopComplete, t.now()); j != nil {
			t.finish(j)
		}
	}
}

// ---- CSB hops (core.CSB.AttachTracer) ----

// CSBStoreAccepted opens a combining-store journey at retire.
//
//csb:hotpath
func (t *Tracer) CSBStoreAccepted(addr uint64, size int, combined bool) uint64 {
	return t.begin(KindCSBStore, addr, size, combined)
}

// CSBSequenceAborted marks a buffered sequence lost to a conflict, a
// failed conditional flush, or an injected dropped acknowledgement; the
// §3.2 software retry re-runs the stores as fresh journeys.
//
//csb:hotpath
func (t *Tracer) CSBSequenceAborted(first uint64, count int) {
	t.abortRange(KindCSBStore, first, count)
}

// CSBFlushCommitted stamps a successful conditional flush: the sequence
// is acknowledged and its line queued for the system interface.
//
//csb:hotpath
func (t *Tracer) CSBFlushCommitted(first uint64, count int) {
	t.stampRange(KindCSBStore, first, count, HopDepart)
}

// CSBBusGranted stamps the bus accepting the line burst.
//
//csb:hotpath
func (t *Tracer) CSBBusGranted(first uint64, count int) {
	t.stampRange(KindCSBStore, first, count, HopBusGrant)
}

// CSBLineDone completes the line's journeys at the burst's last beat.
//
//csb:hotpath
func (t *Tracer) CSBLineDone(first uint64, count int) {
	for i := 0; i < count; i++ {
		if j := t.stamp(KindCSBStore, first+uint64(i), HopComplete, t.now()); j != nil {
			t.finish(j)
		}
	}
}

// ---- NIC descriptor hops (device.NIC.AttachTracer) ----

// NICDescQueued opens a descriptor journey at FIFO accept.
//
//csb:hotpath
func (t *Tracer) NICDescQueued(offset uint64, length int, viaDMA bool) uint64 {
	return t.begin(KindNICDesc, offset, length, viaDMA)
}

// NICTxStarted stamps the descriptor reaching the head of the FIFO and
// transmission beginning.
//
//csb:hotpath
func (t *Tracer) NICTxStarted(id uint64) {
	t.stamp(KindNICDesc, id, HopDepart, t.now())
}

// NICTxDone completes the descriptor journey at end of transmission.
//
//csb:hotpath
func (t *Tracer) NICTxDone(id uint64) {
	if j := t.stamp(KindNICDesc, id, HopComplete, t.now()); j != nil {
		t.finish(j)
	}
}

// ---- wire hops (internal/cluster, replayed at barriers) ----

// WireDeparted opens a wire journey as the cluster pumps a packet from
// node from into flight to node to. link is the sender's descriptor
// journey; fifoPush and txStart are its stamps, and depart the pump
// cycle. It returns the ID the flight carries.
//
//csb:hotpath
//csb:barrier mutates the cluster's wire ring; called from routing at barriers
func (t *WireTracer) WireDeparted(from, to string, size uint32, link, fifoPush, txStart, depart uint64) uint64 {
	j := t.open(KindWire, fifoPush)
	j.Node, j.To, j.Link, j.Size = from, to, link, size
	j.T[HopDepart] = txStart
	j.T[HopWireDepart] = depart
	return j.ID
}

// WireDropped aborts a wire journey the fabric discarded (injected wire
// fault, link outage, or a degraded destination): it keeps its sender
// stamps, and the recording shows the loss at its wire_depart.
//
//csb:hotpath
//csb:barrier mutates the cluster's wire ring; called from routing at barriers
func (t *WireTracer) WireDropped(id uint64) {
	t.abortRange(KindWire, id, 1)
}

// WireArrived stamps the wire latency elapsing at the receiver.
//
//csb:hotpath
//csb:barrier mutates the cluster's wire ring; replayed from node logs at barriers
func (t *WireTracer) WireArrived(id, cycle uint64) {
	t.stamp(KindWire, id, HopWireArrive, cycle)
}

// WireEnqueued stamps the packet's words landing in the receiver's RX
// queue.
//
//csb:hotpath
//csb:barrier mutates the cluster's wire ring; replayed from node logs at barriers
func (t *WireTracer) WireEnqueued(id, cycle uint64) {
	t.stamp(KindWire, id, HopRxEnqueue, cycle)
}

// WireDrained completes a wire journey: software popped the packet's
// last word.
//
//csb:hotpath
//csb:barrier updates the cluster's wire ring and histograms at barriers
func (t *WireTracer) WireDrained(id, cycle uint64) {
	if j := t.stamp(KindWire, id, HopRxDrain, cycle); j != nil {
		t.finish(j)
	}
}

// Lookup returns a copy of the journey with the given ID if it is still
// resident in its kind's ring (it may have collected only some of its
// stamps). The cluster uses this at packet-departure time to carry the
// sender's descriptor stamps into the packet's wire journey.
func (t *Tracer) Lookup(k Kind, id uint64) (Journey, bool) {
	if id == 0 || int(k) >= len(t.rings) {
		return Journey{}, false
	}
	j := t.slot(k, id)
	if j.ID != id {
		return Journey{}, false
	}
	return *j, true
}

// ---- reporting ----

// Counts returns how many journeys of the kind were started, completed
// and aborted over the whole run.
func (t *Tracer) Counts(k Kind) (started, completed, aborted uint64) {
	return t.started[k], t.completed[k], t.aborted[k]
}

// Check reports the first broken invariant: a retained journey's own
// (Journey.Check), or a kind whose run counts do not add up. Every
// journey started is completed, aborted or still open; once a ring has
// wrapped, an evicted journey's fate is unknown, so then the started
// count only bounds the rest.
func (t *Tracer) Check() error {
	var open [numKinds]uint64
	for _, j := range t.Retained() {
		if err := j.Check(); err != nil {
			return err
		}
		if !j.Done && !j.Aborted {
			open[j.Kind]++
		}
	}
	for k, ring := range t.rings {
		settled := t.completed[k] + t.aborted[k] + open[k]
		if settled > t.started[k] || t.started[k] <= uint64(len(ring)) && settled != t.started[k] {
			return fmt.Errorf("journey: %s: %d started, but %d completed + %d aborted + %d open",
				Kind(k), t.started[k], t.completed[k], t.aborted[k], open[k])
		}
	}
	return nil
}

// Retained returns every journey still in the rings (the most recent
// window per kind), ordered by start cycle, then kind, then ID — a
// deterministic chronological interleaving across kinds.
func (t *Tracer) Retained() []Journey {
	var out []Journey
	for k, ring := range t.rings {
		last := t.nextID[k]
		first := uint64(1)
		if last > uint64(len(ring)) {
			first = last - uint64(len(ring)) + 1
		}
		for id := first; id <= last; id++ {
			j := ring[(id-1)%uint64(len(ring))]
			if j.ID == id {
				out = append(out, j)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].T[HopStart] != out[b].T[HopStart] {
			return out[a].T[HopStart] < out[b].T[HopStart]
		}
		if out[a].Kind != out[b].Kind {
			return out[a].Kind < out[b].Kind
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Slowest returns each followed kind's topN slowest completed journeys,
// slowest first (ties broken by kind then ID, keeping the order
// deterministic).
func (t *Tracer) Slowest() []Journey {
	var out []Journey
	for _, s := range t.slowest {
		out = append(out, s...)
	}
	sort.Slice(out, func(a, b int) bool {
		ea, eb := out[a].E2E(), out[b].E2E()
		if ea != eb {
			return ea > eb
		}
		if out[a].Kind != out[b].Kind {
			return out[a].Kind < out[b].Kind
		}
		return out[a].ID < out[b].ID
	})
	return out
}
