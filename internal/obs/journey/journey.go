// Package journey traces the memory-system half of an I/O store's life:
// where the paper's PR-1 observability layer instruments the CPU pipeline
// up to retire, this package follows the store *after* retire — through
// the uncached buffer or the conditional store buffer, across the system
// bus, and into the device — stamping a cycle timestamp at every hop and
// folding the per-hop latencies into fixed-bucket histograms. It is the
// instrumentation behind the paper's §3 latency decomposition (processor
// stall vs. buffer occupancy vs. bus transfer vs. device acceptance).
//
// Three journey kinds are traced:
//
//   - uncached stores: retire/UB-enqueue → UB dequeue (send stage) → bus
//     grant → bus complete (the write landing at the device or memory is
//     the device-acceptance point of the burst);
//   - CSB combining stores: retire/CSB insert-or-combine → successful
//     conditional flush (the ack; a failed flush aborts the journeys, a
//     busy CSB shows up as retried flush attempts in the StallBusy
//     counter) → bus grant of the line burst → bus complete;
//   - NIC transmit descriptors: FIFO accept → transmit start → transmit
//     done (wire serialization included).
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
	numKinds
)

var kindNames = [numKinds]string{"uncached_store", "csb_store", "nic_descriptor"}

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

// Hop indexes a journey's timestamp array. The four slots have a
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
	// NumHops sizes the timestamp array.
	NumHops
)

// hopNames maps kind → per-slot labels ("" = slot unused for the kind).
var hopNames = [numKinds][NumHops]string{
	KindUncachedStore: {"retire", "ub_dequeue", "bus_grant", "bus_complete"},
	KindCSBStore:      {"retire", "flush_ok", "bus_grant", "bus_complete"},
	KindNICDesc:       {"fifo_push", "tx_start", "", "tx_done"},
}

// HopNames returns the kind's labels for the four timestamp slots; the
// empty string marks a slot the kind never stamps.
func HopNames(k Kind) [NumHops]string {
	if int(k) < len(hopNames) {
		return hopNames[k]
	}
	return [NumHops]string{}
}

// Journey is one traced store (or descriptor). All timestamps are CPU
// cycles on the machine's shared timeline; a zero stamp means the hop
// was not reached.
type Journey struct {
	ID        uint64
	Kind      Kind
	Addr      uint64
	Size      uint32
	Coalesced bool
	Aborted   bool
	Done      bool
	T         [NumHops]uint64
}

// E2E returns the end-to-end latency (0 until the journey completes).
func (j Journey) E2E() uint64 {
	if !j.Done {
		return 0
	}
	return j.T[HopComplete] - j.T[HopStart]
}

// topN is how many slowest completed journeys are tracked exactly over
// the whole run.
const topN = 32

// window is the per-kind count of most-recent journeys the rings retain
// for the recording. Histograms and counters always cover the whole run.
const window = 4096

// Tracer assigns journey IDs, stamps hops, and aggregates per-hop
// latency histograms. It implements the Tracer hook interfaces of
// uncbuf, core and device, and is attached through
// sim.Machine.AttachJourneys.
//
// IDs are per-kind and contiguous in acceptance order, which is what
// lets the components pass (first, count) ranges instead of ID lists.
type Tracer struct {
	now func() uint64

	rings  [numKinds][]Journey
	nextID [numKinds]uint64

	started   [numKinds]uint64
	completed [numKinds]uint64
	aborted   [numKinds]uint64
	stale     uint64 // stamps dropped: journey already evicted from its ring

	slowest []Journey
	slowMin uint64 // smallest E2E currently kept in slowest

	hUBWait     *counters.Histogram
	hCSBCombine *counters.Histogram
	hBusArb     *counters.Histogram
	hBusXfer    *counters.Histogram
	hDevFIFO    *counters.Histogram
	hDevTx      *counters.Histogram
	hE2E        [numKinds]*counters.Histogram
}

// NewTracer creates a tracer stamping with the given clock (the
// machine's CPU-cycle reader). Histograms and run counters are created
// in reg so they render uniformly in the machine report; reg may be nil
// for standalone use.
func NewTracer(reg *counters.Registry, now func() uint64) (*Tracer, error) {
	return newTracer(window, reg, now)
}

// newTracer creates a tracer whose rings retain the given number of
// journeys per kind.
func newTracer(window int, reg *counters.Registry, now func() uint64) (*Tracer, error) {
	if now == nil {
		return nil, fmt.Errorf("journey: nil clock")
	}
	t := &Tracer{now: now}
	for k := range t.rings {
		t.rings[k] = make([]Journey, window)
	}
	t.slowest = make([]Journey, 0, topN)
	if reg == nil {
		reg = counters.NewRegistry()
	}
	t.hUBWait = reg.Histogram("journey/ub/queue_wait")
	t.hCSBCombine = reg.Histogram("journey/csb/combine_window")
	t.hBusArb = reg.Histogram("journey/bus/arb_wait")
	t.hBusXfer = reg.Histogram("journey/bus/xfer")
	t.hDevFIFO = reg.Histogram("journey/device/fifo_wait")
	t.hDevTx = reg.Histogram("journey/device/tx")
	t.hE2E[KindUncachedStore] = reg.Histogram("journey/e2e/uncached_store")
	t.hE2E[KindCSBStore] = reg.Histogram("journey/e2e/csb_store")
	t.hE2E[KindNICDesc] = reg.Histogram("journey/e2e/nic_descriptor")
	for k := Kind(0); k < numKinds; k++ {
		k := k
		reg.Counter("journey/"+k.String()+"/started", func() uint64 { return t.started[k] })
		reg.Counter("journey/"+k.String()+"/completed", func() uint64 { return t.completed[k] })
		reg.Counter("journey/"+k.String()+"/aborted", func() uint64 { return t.aborted[k] })
	}
	reg.Counter("journey/stale_drops", func() uint64 { return t.stale })
	return t, nil
}

// slot returns the ring cell a journey ID lives in (its content is only
// that journey's while the ID check holds).
//
//csb:hotpath
func (t *Tracer) slot(k Kind, id uint64) *Journey {
	return &t.rings[k][(id-1)%uint64(len(t.rings[k]))]
}

// begin opens a journey and stamps HopStart.
//
//csb:hotpath
func (t *Tracer) begin(k Kind, addr uint64, size int, coalesced bool) uint64 {
	t.nextID[k]++
	id := t.nextID[k]
	t.started[k]++
	j := t.slot(k, id)
	*j = Journey{ID: id, Kind: k, Addr: addr, Size: uint32(size), Coalesced: coalesced}
	j.T[HopStart] = t.now()
	return id
}

// stamp records a hop timestamp; it returns nil when the journey has
// already been evicted from its ring (the stamp is counted and dropped).
//
//csb:hotpath
func (t *Tracer) stamp(k Kind, id uint64, h Hop) *Journey {
	j := t.slot(k, id)
	if j.ID != id {
		t.stale++
		return nil
	}
	j.T[h] = t.now()
	return j
}

// stampRange stamps a contiguous ID range.
//
//csb:hotpath
func (t *Tracer) stampRange(k Kind, first uint64, count int, h Hop) {
	for i := 0; i < count; i++ {
		t.stamp(k, first+uint64(i), h)
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
	}
	e2e := j.E2E()
	t.hE2E[j.Kind].Record(e2e)
	t.noteSlow(j, e2e)
}

// noteSlow keeps the topN slowest completed journeys (exact over the
// whole run). The fixed-capacity slice never reallocates.
//
//csb:hotpath
func (t *Tracer) noteSlow(j *Journey, e2e uint64) {
	if len(t.slowest) < cap(t.slowest) {
		t.slowest = append(t.slowest, *j)
		if len(t.slowest) == 1 || e2e < t.slowMin {
			t.slowMin = e2e
		}
		if len(t.slowest) == cap(t.slowest) {
			t.recomputeSlowMin()
		}
		return
	}
	if e2e <= t.slowMin {
		return
	}
	for i := range t.slowest {
		if t.slowest[i].E2E() == t.slowMin {
			t.slowest[i] = *j
			break
		}
	}
	t.recomputeSlowMin()
}

//csb:hotpath
func (t *Tracer) recomputeSlowMin() {
	min := ^uint64(0)
	for i := range t.slowest {
		if e := t.slowest[i].E2E(); e < min {
			min = e
		}
	}
	t.slowMin = min
}

// abort marks a journey range failed (CSB conflict, flush failure).
// Aborted journeys keep the stamps they collected and stay in the ring
// for the recording, but contribute to no latency histogram.
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

// ---- uncbuf.Tracer ----

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
		if j := t.stamp(KindUncachedStore, first+uint64(i), HopComplete); j != nil {
			t.finish(j)
		}
	}
}

// ---- core.Tracer ----

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
		if j := t.stamp(KindCSBStore, first+uint64(i), HopComplete); j != nil {
			t.finish(j)
		}
	}
}

// ---- device.Tracer ----

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
	t.stamp(KindNICDesc, id, HopDepart)
}

// NICTxDone completes the descriptor journey at end of transmission.
//
//csb:hotpath
func (t *Tracer) NICTxDone(id uint64) {
	if j := t.stamp(KindNICDesc, id, HopComplete); j != nil {
		t.finish(j)
	}
}

// Lookup returns a copy of the journey with the given ID if it is still
// resident in its kind's ring (it may have collected only some of its
// stamps). The cluster wire tracer uses this at packet-departure time to
// graft the sender-side NIC hops onto a cross-node span.
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

// Retained returns every journey still in the rings (the most recent
// window per kind), ordered by start cycle, then kind, then ID — a
// deterministic chronological interleaving across kinds.
func (t *Tracer) Retained() []Journey {
	var out []Journey
	for k := Kind(0); k < numKinds; k++ {
		ring := t.rings[k]
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

// Slowest returns the topN slowest completed journeys, slowest first
// (ties broken by kind then ID, keeping the order deterministic).
func (t *Tracer) Slowest() []Journey {
	out := make([]Journey, len(t.slowest))
	copy(out, t.slowest)
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
