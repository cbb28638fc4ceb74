package cluster

import (
	"bytes"
	"slices"
	"testing"

	"csbsim/internal/obs/journey"
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

// wireJourneys returns a recording's recent wire journeys.
func wireJourneys(rc *rec.Recording) []journey.Journey {
	var out []journey.Journey
	for _, j := range rc.Journeys {
		if j.Kind == journey.KindWire {
			out = append(out, j)
		}
	}
	return out
}

// checkTracers requires every node's journey tracer and the cluster's
// to hold their invariants (journey.Tracer.Check).
func checkTracers(t *testing.T, c *Cluster) {
	t.Helper()
	for _, n := range c.Nodes() {
		if err := n.M.Journeys().Check(); err != nil {
			t.Errorf("%s: %v", n.Name(), err)
		}
	}
	if err := c.Trace().Check(); err != nil {
		t.Errorf("cluster: %v", err)
	}
}

// TestTracedRunMergedSpans is the acceptance check on a live cluster:
// the packet's wire journey continues the sender's descriptor journey,
// and its per-hop latencies sum exactly to the end-to-end figure, with
// every stamp in order.
func TestTracedRunMergedSpans(t *testing.T) {
	c := newTracedCluster(t, 80, 0)
	if err := c.Run(1_000_000, false); err != nil {
		t.Fatal(err)
	}
	tr := c.Trace()
	if _, completed, _ := tr.Counts(journey.KindWire); completed != 1 {
		t.Fatalf("completed wire journeys = %d, want 1", completed)
	}
	js := tr.Retained()
	if len(js) != 1 {
		t.Fatalf("retained %d wire journeys, want 1", len(js))
	}
	j := js[0]
	if !j.Done || j.Node != "n0" || j.To != "n1" {
		t.Fatalf("bad wire journey: %+v", j)
	}
	desc, ok := c.Node(0).M.Journeys().Lookup(journey.KindNICDesc, j.Link)
	if !ok || j.T[journey.HopStart] != desc.T[journey.HopStart] || j.T[journey.HopDepart] != desc.T[journey.HopDepart] {
		t.Errorf("wire journey %+v does not continue the sender's descriptor journey %+v", j, desc)
	}
	names := journey.HopNames(journey.KindWire)
	for h := journey.HopDepart; h <= journey.KindWire.Last(); h++ {
		if j.T[h] < j.T[h-1] {
			t.Fatalf("hop %s (%d) precedes %s (%d)", names[h], j.T[h], names[h-1], j.T[h-1])
		}
	}
	hopSum := j.T[journey.HopRxDrain] - j.T[journey.HopStart] // telescoped
	if hopSum != j.E2E() || j.E2E() == 0 {
		t.Fatalf("hop sum %d vs e2e %d", hopSum, j.E2E())
	}
	// The wire hop must be at least the configured latency in CPU cycles.
	if got := j.T[journey.HopWireArrive] - j.T[journey.HopWireDepart]; got < 80 {
		t.Errorf("wire hop = %d cycles, want >= 80", got)
	}
	// And the registry histograms must agree with the journey count.
	snap := c.Registry().Snapshot()
	if snap.Histograms["journey/e2e/wire"].Count != 1 {
		t.Errorf("e2e histogram count = %d, want 1", snap.Histograms["journey/e2e/wire"].Count)
	}
	if snap.Counters["journey/wire/completed"] != 1 {
		t.Errorf("journey/wire/completed = %d, want 1", snap.Counters["journey/wire/completed"])
	}
	checkTracers(t, c)
}

// TestTracedDumpDeterministic: repeated identical cluster runs produce
// byte-identical recordings, the sender's store and descriptor journeys
// and the wire journey's "j" frames included.
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
	if w := wireJourneys(rc); len(w) != 1 || !w[0].Done {
		t.Fatalf("recording holds wire journeys %+v, want one completed", w)
	}
	var sender int
	for _, j := range rc.Journeys {
		if j.Kind != journey.KindWire && j.Node == "n0" {
			sender++
		}
	}
	if sender == 0 {
		t.Error("recording holds no journey of the sender n0")
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
	e2e := rc.HistIndex("cluster/journey/e2e/wire")
	if e2e < 0 {
		t.Fatal("recording has no cluster/journey/e2e/wire series")
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
// recording holding the partial wire journey (mirror of the single-node
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
	// the period never elapsing, with the partial (undelivered) wire
	// journey and the run counters that count it.
	rc := requireFlushedAt(t, recording.Bytes(), c.Cycle())
	if w := wireJourneys(rc); len(w) != 1 || w[0].Done || w[0].T[journey.HopWireArrive] != 0 {
		t.Fatalf("expected one partial wire journey, got %+v", w)
	}
	last := &rc.Windows[len(rc.Windows)-1]
	started := last.CtrEnd[rc.CounterIndex("cluster/journey/wire/started")]
	completed := last.CtrEnd[rc.CounterIndex("cluster/journey/wire/completed")]
	if started != 1 || completed != 0 {
		t.Fatalf("recorded started=%d completed=%d, want 1/0", started, completed)
	}
}
