package cluster

import (
	"bytes"
	"testing"

	"csbsim/internal/obs/rec"
)

// recRingSLO is the spec the recorded fault runs carry: a latency bound
// loose enough to stay green plus a fabric-health rule the outage
// windows will flip, so both the quiet and the breached SLO paths land
// in the recording the engines must agree on.
const recRingSLO = "p99(cluster/journey/e2e/wire) <= 1000000; rate(cluster/outage_drops) <= 0.01; cluster/nodes_down == 0"

// runRecordedRing is runFaultedRing with a flight recorder attached:
// same 4-node traced ring, same hook-driven traffic, same wire-fault
// mix, plus windowed rollups with an SLO into an in-memory recording.
// It returns the recording bytes and the recorder for state checks.
func runRecordedRing(t *testing.T, run func(*Cluster) error) ([]byte, *rec.Recorder) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Topology = TopoRing
	cfg.WireLatency = 90
	cfg.Bandwidth = 2
	cfg.LinkDepth = 6
	cfg.RxEnqueueDelay = 13
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes() {
		n.MapIO(false)
		if _, err := n.M.LoadSource("idle.s", "halt\n"); err != nil {
			t.Fatal(err)
		}
		hookSender(c, i, uint64(97+13*i), 30_000, 45_000)
	}
	if _, err := c.AttachTrace(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AttachWireFaults(wireFaultMix()); err != nil {
		t.Fatal(err)
	}
	r, err := rec.New(rec.Config{Every: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.SetWriter(&buf); err != nil {
		t.Fatal(err)
	}
	slo, err := rec.ParseSLO(recRingSLO)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetSLO(slo); err != nil {
		t.Fatal(err)
	}
	if err := c.AttachRecorder(r); err != nil {
		t.Fatal(err)
	}
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return buf.Bytes(), r
}

// TestRecordingParallelMatchesSequential is this PR's acceptance check:
// under the full wire-fault mix, the parallel engine must
// produce a byte-identical recording file — header, every window frame,
// every cycle-stamped event, every wire span — to the inline sequential
// reference, and
// to a second parallel run. Windowed rollups read registries only at
// barriers, so the recording is a pure function of (seed, traffic).
func TestRecordingParallelMatchesSequential(t *testing.T) {
	seq, _ := runRecordedRing(t, func(c *Cluster) error { return c.RunFor(60_000, false) })
	par, _ := runRecordedRing(t, func(c *Cluster) error { return c.RunFor(60_000, true) })
	par2, _ := runRecordedRing(t, func(c *Cluster) error { return c.RunFor(60_000, true) })

	if !bytes.Equal(seq, par) {
		t.Errorf("recordings differ between engines (%d vs %d bytes)", len(seq), len(par))
		logFirstDiff(t, seq, par)
	}
	if !bytes.Equal(par, par2) {
		t.Errorf("parallel recordings differ across runs (%d vs %d bytes)", len(par), len(par2))
		logFirstDiff(t, par, par2)
	}

	// The recording must actually exercise the machinery: windows rolled,
	// outage windows logged, wire journeys written, a clean footer.
	rc, err := rec.Read(seq)
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Clean || rc.Truncated {
		t.Errorf("clean=%v truncated=%v, want clean close", rc.Clean, rc.Truncated)
	}
	if len(rc.Windows) == 0 {
		t.Fatal("no windows recorded")
	}
	if len(wireJourneys(rc)) == 0 {
		t.Error("no wire journeys in the traced recording — guard is vacuous")
	}
	outages := 0
	for _, ev := range rc.Events {
		if ev.Kind == "link_outage" {
			outages++
		}
	}
	if outages == 0 {
		t.Error("no link_outage events under the wire-fault mix — guard is vacuous")
	}
}

// TestRecorderBeforeTrace: a recorder attached before the tracers still
// writes every node's journeys and the wire journeys as j frames, and
// its recording equals, byte for byte, the one made in the usual order
// (tracers first).
func TestRecorderBeforeTrace(t *testing.T) {
	record := func(recFirst bool) []byte {
		cfg := DefaultConfig()
		cfg.Nodes = 2
		cfg.WireLatency = 90
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range c.Nodes() {
			n.MapIO(false)
			if _, err := n.M.LoadSource("idle.s", "halt\n"); err != nil {
				t.Fatal(err)
			}
			hookSender(c, i, uint64(211+17*i), 12_000, 20_000)
		}
		var buf *bytes.Buffer
		if recFirst {
			buf = attachRecording(t, c, 4_000)
		}
		if _, err := c.AttachTrace(); err != nil {
			t.Fatal(err)
		}
		if !recFirst {
			buf = attachRecording(t, c, 4_000)
		}
		if err := c.RunFor(25_000, false); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	traceFirst, recFirst := record(false), record(true)
	rc, err := rec.Read(recFirst)
	if err != nil {
		t.Fatal(err)
	}
	if len(wireJourneys(rc)) == 0 || len(wireJourneys(rc)) == len(rc.Journeys) {
		t.Fatal("recorder attached before the tracers wrote no wire or no node journeys")
	}
	if !bytes.Equal(traceFirst, recFirst) {
		t.Errorf("recording depends on attach order (%d vs %d bytes)", len(traceFirst), len(recFirst))
		logFirstDiff(t, traceFirst, recFirst)
	}
}

// TestSameSeedDiffEmpty pins the regression-check contract behind
// `csbrec diff`: two runs from the same seed produce recordings with no
// semantic differences (and, byte-equal files aside, Diff itself finds
// nothing even at zero tolerance).
func TestSameSeedDiffEmpty(t *testing.T) {
	a, _ := runRecordedRing(t, func(c *Cluster) error { return c.RunFor(60_000, true) })
	b, _ := runRecordedRing(t, func(c *Cluster) error { return c.RunFor(60_000, true) })
	ra, err := rec.Read(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := rec.Read(b)
	if err != nil {
		t.Fatal(err)
	}
	if d := rec.Diff(ra, rb, 0); len(d) != 0 {
		t.Errorf("same-seed diff reports %d differences, first: %s", len(d), d[0])
	}
}

// TestRecorderFlushedOnWatchdogAbort pins the flush-ordering fix: when
// the cluster aborts (a node wedges past the watchdog window), the
// recording still ends with its pending events, a final partial window
// and a footer — the abort path must not strand buffered frames.
func TestRecorderFlushedOnWatchdogAbort(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.WireLatency = 60
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		n.MapIO(false)
		if _, err := n.M.LoadSource("idle.s", "halt\n"); err != nil {
			t.Fatal(err)
		}
	}
	// Node 0 retires nothing (every bus transaction NACKed), so the
	// watchdog trips it.
	wedgeNode(t, c.Node(0))
	if err := c.SetWatchdog(5_000, false); err != nil {
		t.Fatal(err)
	}
	r, err := rec.New(rec.Config{Every: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r.SetWriter(&buf)
	if err := c.AttachRecorder(r); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(60_000, true); err == nil {
		t.Fatal("wedged cluster run succeeded")
	}
	rc, err := rec.Read(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Clean {
		t.Error("aborted run left no footer — recorder not flushed on the abort path")
	}
	watchdogs := 0
	for _, ev := range rc.Events {
		if ev.Kind == "watchdog" {
			watchdogs++
		}
	}
	if watchdogs == 0 {
		t.Error("watchdog fire missing from the event log")
	}
}

// attachRecording attaches a flight recorder rolling every `every`
// cycles into an in-memory recording and returns that buffer.
func attachRecording(t *testing.T, c *Cluster, every uint64) *bytes.Buffer {
	t.Helper()
	r, err := rec.New(rec.Config{Every: every})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.SetWriter(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.AttachRecorder(r); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// requireFlushedAt reads a recording back and requires the clean close
// the abort and halt paths promise: a footer at the cluster's final
// cycle, and a last window that ends there.
func requireFlushedAt(t *testing.T, data []byte, cycle uint64) *rec.Recording {
	t.Helper()
	rc, err := rec.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Clean || rc.End != cycle {
		t.Fatalf("recording clean=%v end=%d, want a footer at cycle %d", rc.Clean, rc.End, cycle)
	}
	if len(rc.Windows) == 0 || rc.Windows[len(rc.Windows)-1].C1 != cycle {
		t.Fatalf("last of %d windows does not end at cycle %d", len(rc.Windows), cycle)
	}
	return rc
}

// logFirstDiff reports the byte offset and surrounding text of the first
// divergence between two recordings, for debugging.
func logFirstDiff(t *testing.T, a, b []byte) {
	t.Helper()
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo, hi := i-40, i+40
			if lo < 0 {
				lo = 0
			}
			if hi > n {
				hi = n
			}
			t.Logf("first divergence at byte %d:\n  a: %q\n  b: %q", i, a[lo:hi], b[lo:hi])
			return
		}
	}
	t.Logf("recordings are a prefix of each other (lengths %d vs %d)", len(a), len(b))
}
