package ctrace

import (
	"slices"
	"testing"

	"csbsim/internal/obs/counters"
)

// drive runs one packet through the full span lifecycle.
func drive(t *Tracer, fifo, txs, dep, arr, enq, drn uint64) uint64 {
	id := t.PacketDeparted("a", "b", 64, 7, fifo, txs, dep)
	t.PacketArrived(id, arr)
	t.PacketEnqueued(id, enq)
	t.PacketDrained(id, drn)
	return id
}

func TestSpanLifecycle(t *testing.T) {
	reg := counters.NewRegistry()
	tr := newTracer(16, reg)
	id := drive(tr, 100, 110, 150, 270, 270, 400)
	if id != 1 {
		t.Fatalf("first trace ID = %d, want 1", id)
	}
	if tr.Started() != 1 || tr.Completed() != 1 {
		t.Fatalf("started=%d completed=%d, want 1/1", tr.Started(), tr.Completed())
	}
	spans := tr.Retained()
	if len(spans) != 1 {
		t.Fatalf("retained %d spans, want 1", len(spans))
	}
	s := spans[0]
	if !s.Done || s.From != "a" || s.To != "b" || s.JID != 7 || s.Size != 64 {
		t.Fatalf("bad span: %+v", s)
	}
	if s.E2E != 300 {
		t.Fatalf("e2e = %d, want 300", s.E2E)
	}
	snap := reg.Snapshot()
	if snap.Counters["ctrace/packets_completed"] != 1 {
		t.Fatalf("completed counter = %d", snap.Counters["ctrace/packets_completed"])
	}
	if got := snap.Histograms["ctrace/hop/wire"].Max; got != 120 {
		t.Fatalf("wire hop = %d, want 120", got)
	}
	if got := snap.Histograms["ctrace/e2e"].Max; got != 300 {
		t.Fatalf("e2e hist = %d, want 300", got)
	}
}

// TestHopSumMatchesE2E is the acceptance check: for every completed span,
// the per-hop deltas of the merged stamps telescope exactly to the
// reported end-to-end latency.
func TestHopSumMatchesE2E(t *testing.T) {
	reg := counters.NewRegistry()
	tr := newTracer(64, reg)
	drive(tr, 100, 120, 160, 280, 285, 512)
	drive(tr, 900, 900, 950, 1070, 1070, 1100)
	for _, s := range tr.Retained() {
		if !s.Done {
			t.Fatalf("span %d not done", s.TraceID)
		}
		hopSum := (s.TxStart - s.FIFOPush) +
			(s.WireDepart - s.TxStart) +
			(s.WireArrive - s.WireDepart) +
			(s.RxEnqueue - s.WireArrive) +
			(s.RxDrain - s.RxEnqueue)
		if hopSum != s.E2E {
			t.Fatalf("span %d: hop sum %d != e2e %d", s.TraceID, hopSum, s.E2E)
		}
	}
	if got := reg.Snapshot().Histograms["ctrace/e2e"].Count; got != 2 {
		t.Fatalf("e2e count %d, want 2", got)
	}
}

func TestStaleDropsOnRingEviction(t *testing.T) {
	tr := newTracer(2, nil)
	id1 := tr.PacketDeparted("a", "b", 8, 0, 1, 2, 3)
	tr.PacketDeparted("a", "b", 8, 0, 4, 5, 6)
	tr.PacketDeparted("a", "b", 8, 0, 7, 8, 9) // evicts id1
	tr.PacketDrained(id1, 100)
	if tr.stale != 1 {
		t.Fatalf("stale = %d, want 1", tr.stale)
	}
	if tr.Completed() != 0 {
		t.Fatalf("completed = %d, want 0", tr.Completed())
	}
}

// TestRetainedAligned: identical stamp sequences retain identical
// spans, each stamp as it was taken.
func TestRetainedAligned(t *testing.T) {
	mk := func() []MergedSpan {
		tr := newTracer(8, nil)
		drive(tr, 10, 12, 20, 140, 141, 200)
		drive(tr, 300, 300, 310, 430, 430, 488)
		return tr.Retained()
	}
	a, b := mk(), mk()
	if !slices.Equal(a, b) || len(a) != 2 {
		t.Fatalf("retained spans differ or miscount:\n%+v\n----\n%+v", a, b)
	}
	if s := a[0]; s.WireDepart != 20 || s.WireArrive != 140 || s.RxDrain != 200 || s.E2E != 190 {
		t.Fatalf("span stamps changed: %+v", s)
	}
}

// TestStampPathZeroAlloc guards the wire stamp path: once the ring is
// allocated, opening and stamping spans must not allocate.
func TestStampPathZeroAlloc(t *testing.T) {
	tr := newTracer(256, nil)
	var cyc uint64
	allocs := testing.AllocsPerRun(1000, func() {
		cyc += 10
		id := tr.PacketDeparted("a", "b", 32, 0, cyc, cyc+1, cyc+2)
		tr.PacketArrived(id, cyc+120)
		tr.PacketEnqueued(id, cyc+120)
		tr.PacketDrained(id, cyc+150)
	})
	if allocs != 0 {
		t.Fatalf("stamp path allocates: %v allocs/op", allocs)
	}
}

// TestDroppedSpan: a packet the fabric discards is closed as dropped —
// counted in the registry, and flagged with its drop cycle in the
// retained span.
func TestDroppedSpan(t *testing.T) {
	reg := counters.NewRegistry()
	tr := newTracer(8, reg)
	drive(tr, 10, 12, 20, 140, 141, 200)
	id := tr.PacketDeparted("a", "b", 64, 0, 300, 302, 310)
	tr.PacketDropped(id, 310)
	if got := reg.Snapshot().Counters["ctrace/packets_dropped"]; got != 1 {
		t.Fatalf("ctrace/packets_dropped = %d, want 1", got)
	}
	var lost MergedSpan
	for _, s := range tr.Retained() {
		if s.TraceID == id {
			lost = s
		}
	}
	if lost.TraceID != id {
		t.Fatal("dropped span not retained")
	}
	if !lost.Dropped || lost.DropCycle != 310 || lost.Done {
		t.Fatalf("bad dropped span: %+v", lost)
	}
}
