package cluster

import (
	"bytes"
	"slices"
	"testing"

	"csbsim/internal/cluster/ctrace"
	"csbsim/internal/obs/rec"
)

// newTracedCluster builds a cluster with distributed tracing attached and
// a one-packet send/recv guest pair loaded.
func newTracedCluster(t *testing.T, wire, enqDelay uint64) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.WireLatency = wire
	cfg.RxEnqueueDelay = enqDelay
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Node(0).MapIO(false)
	c.Node(1).MapIO(false)
	if _, err := c.AttachTrace(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(0).M.LoadSource("send.s", sendProg(0xbeef)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(1).M.LoadSource("recv.s", recvProg); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTracedRunMergedSpans is the acceptance check on a live cluster: the
// traced run produces a merged dump whose per-hop latencies sum exactly
// to the end-to-end figure, with every stamp in order.
func TestTracedRunMergedSpans(t *testing.T) {
	c := newTracedCluster(t, 80, 0)
	if err := c.Run(1_000_000, false); err != nil {
		t.Fatal(err)
	}
	tr := c.Trace()
	if tr.Completed() != 1 {
		t.Fatalf("completed spans = %d, want 1", tr.Completed())
	}
	spans := tr.Retained()
	if len(spans) != 1 {
		t.Fatalf("retained %d spans, want 1", len(spans))
	}
	s := spans[0]
	if !s.Done || s.From != "n0" || s.To != "n1" {
		t.Fatalf("bad span: %+v", s)
	}
	if s.JID == 0 {
		t.Error("sender journey ID not grafted onto the wire span")
	}
	stamps := []uint64{s.FIFOPush, s.TxStart, s.WireDepart, s.WireArrive, s.RxEnqueue, s.RxDrain}
	for i := 1; i < len(stamps); i++ {
		if stamps[i] < stamps[i-1] {
			t.Fatalf("hop %s (%d) precedes %s (%d)",
				ctrace.HopNames[i], stamps[i], ctrace.HopNames[i-1], stamps[i-1])
		}
	}
	hopSum := s.RxDrain - s.FIFOPush // telescoped
	if hopSum != s.E2E || s.E2E == 0 {
		t.Fatalf("hop sum %d vs e2e %d", hopSum, s.E2E)
	}
	// The wire hop must be at least the configured latency in CPU cycles.
	if got := s.WireArrive - s.WireDepart; got < 80 {
		t.Errorf("wire hop = %d cycles, want >= 80", got)
	}
	// And the registry histograms must agree with the span count.
	snap := c.Registry().Snapshot()
	if snap.Histograms["ctrace/e2e"].Count != 1 {
		t.Errorf("e2e histogram count = %d, want 1", snap.Histograms["ctrace/e2e"].Count)
	}
	if snap.Counters["ctrace/packets_completed"] != 1 {
		t.Errorf("packets_completed = %d, want 1", snap.Counters["ctrace/packets_completed"])
	}
}

// TestTracedDumpDeterministic: repeated identical cluster runs produce
// byte-identical recordings, the wire span's "s" frame included.
func TestTracedDumpDeterministic(t *testing.T) {
	run := func() []byte {
		c := newTracedCluster(t, 50, 7)
		recording := attachRecording(t, c, 1_000)
		if err := c.Run(1_000_000, false); err != nil {
			t.Fatal(err)
		}
		return recording.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		logFirstDiff(t, a, b)
		t.Fatal("recordings differ across identical runs")
	}
	rc, err := rec.Read(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Spans) != 1 || !rc.Spans[0].Done {
		t.Fatalf("recording holds spans %+v, want one completed", rc.Spans)
	}
}

func TestRxEnqueueDelayDelaysDelivery(t *testing.T) {
	cycles := func(delay uint64) uint64 {
		c := newTracedCluster(t, 20, delay)
		if err := c.Run(1_000_000, false); err != nil {
			t.Fatal(err)
		}
		return c.HaltCycle()
	}
	fast := cycles(0)
	slow := cycles(600)
	if slow < fast+500 {
		t.Errorf("rx enqueue delay not honored: %d vs %d cycles", fast, slow)
	}
}

// TestClusterCountersInNodeRegistries: the wire counters are visible from
// each node's own registry (report/watchdog path) and the cluster
// registry.
func TestClusterCountersInNodeRegistries(t *testing.T) {
	c := newCluster(t, 40)
	c.Node(0).MapIO(false)
	c.Node(1).MapIO(false)
	c.AttachCounters()
	if _, err := c.Node(0).M.LoadSource("send.s", sendProg(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(1).M.LoadSource("recv.s", recvProg); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(1_000_000, false); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		snap := n.M.Counters().Snapshot()
		for _, name := range []string{
			"cluster/packets_in_flight", "cluster/wire_occupancy_words", "cluster/rx_highwater",
		} {
			if _, ok := snap.Counters[name]; !ok {
				t.Errorf("node %s registry missing %s", n.Name(), name)
			}
		}
	}
	snap := c.Registry().Snapshot()
	if snap.Counters["cluster/n1/rx_highwater"] == 0 {
		t.Error("receiver rx_highwater never rose above zero")
	}
	if snap.Counters["cluster/packets_in_flight"] != 0 {
		t.Error("packets still in flight after both nodes halted")
	}
}

// TestWireCountersDuringFlight: mid-run, with a long wire, the in-flight
// and occupancy counters reflect the queued packet.
func TestWireCountersDuringFlight(t *testing.T) {
	c := newCluster(t, 10_000)
	c.Node(0).MapIO(false)
	c.Node(1).MapIO(false)
	c.AttachCounters()
	if _, err := c.Node(0).M.LoadSource("send.s", sendProg(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(1).M.LoadSource("recv.s", recvProg); err != nil {
		t.Fatal(err)
	}
	// Run a short horizon: the packet is pumped well before the 10k-cycle
	// wire latency elapses, so it is still crossing the wire at the end.
	if err := c.RunFor(5000, false); err != nil {
		t.Fatal(err)
	}
	snap := c.Registry().Snapshot()
	if snap.Counters["cluster/packets_in_flight"] != 1 {
		t.Fatalf("in flight = %d packets, want 1", snap.Counters["cluster/packets_in_flight"])
	}
	if snap.Counters["cluster/wire_occupancy_words"] != 1 {
		t.Fatalf("occupancy = %d words, want 1", snap.Counters["cluster/wire_occupancy_words"])
	}
}

// TestRecorderCadence: the barrier rolls a recorder window at the first
// window edge past each cadence interval — with a 100-cycle cadence and
// 40-cycle windows, every 120 cycles — and the final flush closes a
// partial window at the cluster's last cycle.
func TestRecorderCadence(t *testing.T) {
	c := newTracedCluster(t, 40, 0)
	buf := attachRecording(t, c, 100)
	if err := c.Run(1_000_000, false); err != nil {
		t.Fatal(err)
	}
	rc := requireFlushedAt(t, buf.Bytes(), c.Cycle())
	if want := []string{"n0", "n1", "cluster"}; !slices.Equal(rc.Sources, want) {
		t.Errorf("sources %v, want %v", rc.Sources, want)
	}
	var c0 uint64
	for i, w := range rc.Windows {
		if w.C0 != c0 {
			t.Fatalf("window %d starts at %d, want %d", i, w.C0, c0)
		}
		if i < len(rc.Windows)-1 && w.C1 != c0+120 {
			t.Errorf("window %d is (%d,%d], want a roll at the first barrier past %d", i, w.C0, w.C1, c0+100)
		}
		c0 = w.C1
	}
	if want := (c.Cycle() + 119) / 120; uint64(len(rc.Windows)) != want {
		t.Errorf("%d windows over %d cycles, want %d", len(rc.Windows), c.Cycle(), want)
	}
	e2e := rc.HistIndex("cluster/ctrace/e2e")
	if e2e < 0 {
		t.Fatal("recording has no cluster/ctrace/e2e series")
	}
	var n uint64
	for _, w := range rc.Windows {
		n += w.Hist[e2e].N
	}
	if n != 1 {
		t.Errorf("e2e samples across windows = %d, want 1", n)
	}
}

// TestRunErrorFlushesObs: a faulting node still yields a closed
// recording holding the partial span (mirror of the single-node
// flushObs abort behavior).
func TestRunErrorFlushesObs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WireLatency = 30_000 // packet still on the wire at fault time
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Node(0).MapIO(false)
	c.Node(1).MapIO(false)
	if _, err := c.AttachTrace(); err != nil {
		t.Fatal(err)
	}
	recording := attachRecording(t, c, 1_000_000) // period longer than the run
	// A sends, spins long enough for its NIC to finish transmitting, then
	// faults; B waits forever for a packet that is still crossing the wire
	// when the cluster aborts.
	src := `
	.equ NICREG, 0x40000000
	.equ PKTBUF, 0x40001000
	set NICREG, %o0
	set PKTBUF, %o1
	set 1, %g1
	stx %g1, [%o1]
	membar
	set 8, %g4
	sll %g4, 48, %g4
	stx %g4, [%o0]
	membar
	set 500, %g5
spin:	dec %g5
	tst %g5
	bnz spin
	set 0x70000000, %o1
	ldx [%o1], %g1
	halt
`
	if _, err := c.Node(0).M.LoadSource("bad.s", src); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(1).M.LoadSource("recv.s", recvProg); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(1_000_000, false); err == nil {
		t.Fatal("expected node fault")
	}
	// The flush must have closed the recording at the abort cycle despite
	// the period never elapsing, with the partial (undelivered) span and
	// the run counters that count it.
	rc := requireFlushedAt(t, recording.Bytes(), c.Cycle())
	if len(rc.Spans) != 1 || rc.Spans[0].Done || rc.Spans[0].WireArrive != 0 {
		t.Fatalf("expected one partial span, got %+v", rc.Spans)
	}
	last := &rc.Windows[len(rc.Windows)-1]
	started := last.CtrEnd[rc.CounterIndex("cluster/ctrace/packets_started")]
	completed := last.CtrEnd[rc.CounterIndex("cluster/ctrace/packets_completed")]
	if started != 1 || completed != 0 {
		t.Fatalf("recorded started=%d completed=%d, want 1/0", started, completed)
	}
}
