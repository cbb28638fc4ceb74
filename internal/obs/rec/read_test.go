package rec

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"csbsim/internal/obs"
	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/journey"
)

// sampleRecording is a small cleanly closed recording: two sources, a
// histogram whose p99 breaches and recovers, an event, and a footer.
func sampleRecording(t testing.TB) []byte {
	reg, a, _, h := testSource()
	r, err := New(Config{Every: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddSource("dev", reg); err != nil {
		t.Fatal(err)
	}
	slo, err := ParseSLO("p99(dev/lat) <= 50")
	if err != nil {
		t.Fatal(err)
	}
	r.SetSLO(slo)
	var buf bytes.Buffer
	r.SetWriter(&buf)
	r.Start(0)
	*a = 3
	h.Record(7)
	r.Roll(100)
	h.Record(4000)
	r.Event(150, "node_down", "n1", "", 1)
	r.Roll(200)
	*a = 9
	r.Flush(250)
	return buf.Bytes()
}

// gaugeRecording is a cleanly closed recording with a counter, a gauge
// that rises and then falls, and a histogram.
func gaugeRecording(t testing.TB) []byte {
	reg, a, _, h := testSource()
	depth := new(uint64)
	reg.Gauge("depth", func() uint64 { return *depth })
	r, err := New(Config{Every: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddSource("dev", reg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r.SetWriter(&buf)
	r.Start(0)
	*a, *depth = 4, 6
	h.Record(9)
	r.Roll(100)
	*a, *depth = 7, 2
	r.Flush(150)
	return buf.Bytes()
}

// journeyRecording records a journey tracer's registry over three
// windows: two uncached stores complete in the first, one more and an
// aborted CSB sequence in the second, and a store is still in flight at
// the footer. It returns the tracer, its registry and the recording.
func journeyRecording(t testing.TB) (*journey.Tracer, *counters.Registry, []byte) {
	reg := counters.NewRegistry()
	var cycle uint64
	tr, err := journey.NewTracer(reg, func() uint64 { return cycle })
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Every: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddSource("m", reg); err != nil {
		t.Fatal(err)
	}
	if err := r.AddJourneys("m", tr); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r.SetWriter(&buf)
	r.Start(0)
	store := func(at, e2e uint64) {
		cycle = at
		id := tr.UBStoreAccepted(0x1000+at, 8, at%20 == 0)
		cycle += 2
		tr.UBEntryDeparted(id, 1)
		cycle += 3
		tr.UBBusGranted(id, 1)
		cycle = at + e2e
		tr.UBEntryDone(id, 1)
	}
	store(10, 40)
	store(20, 70)
	r.Roll(100)
	store(110, 60)
	cycle = 150
	first := tr.CSBStoreAccepted(0x2000, 8, false)
	tr.CSBStoreAccepted(0x2008, 8, true)
	tr.CSBSequenceAborted(first, 2)
	r.Roll(200)
	cycle = 230
	tr.UBStoreAccepted(0x3000, 8, false)
	if err := r.AddJourneys("m2", tr); err == nil {
		t.Error("AddJourneys after Start accepted")
	}
	r.Flush(250)
	return tr, reg, buf.Bytes()
}

// onNode returns journeys with their node set, as a recording of a
// machine's tracer reads them back.
func onNode(node string, js []journey.Journey) []journey.Journey {
	for i := range js {
		js[i].Node = node
	}
	return js
}

// TestFooterAndJourneys: the footer's whole-run row for each histogram
// equals its Summary (the last window holds no samples, so no window's
// row could stand in), the journey frames read back as the tracer's
// Slowest and Retained on the tracer's node, the same tracer state
// writes the same bytes, and Diff reports a journey or a whole-run row
// that differs.
func TestFooterAndJourneys(t *testing.T) {
	tr, reg, data := journeyRecording(t)
	rc, err := Read(data)
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Clean || rc.Truncated || len(rc.Windows) != 3 || len(rc.Total) != len(rc.HistNames) {
		t.Fatalf("clean=%v truncated=%v windows=%d rows=%d for %d histograms",
			rc.Clean, rc.Truncated, len(rc.Windows), len(rc.Total), len(rc.HistNames))
	}
	reg.VisitHistograms(func(h *counters.Histogram) {
		i := rc.HistIndex("m/" + h.Name())
		s, got := h.Summary(), rc.Total[i]
		if got.N != s.Count || got.Min != s.Min || got.P50 != s.P50 || got.P95 != s.P95 ||
			got.P99 != s.P99 || got.Max != s.Max || got.Mean() != s.Mean {
			t.Errorf("%s: whole-run row %+v, summary %+v", h.Name(), got, s)
		}
	})
	if rc.Total[rc.HistIndex("m/journey/e2e/uncached_store")].N != 3 {
		t.Errorf("e2e row counts %d stores, want 3", rc.Total[rc.HistIndex("m/journey/e2e/uncached_store")].N)
	}
	if want := onNode("m", tr.Slowest()); !reflect.DeepEqual(rc.Slowest, want) || len(rc.Slowest) != 3 {
		t.Errorf("slowest read back as %+v\nwant %+v", rc.Slowest, want)
	}
	if want := onNode("m", tr.Retained()); !reflect.DeepEqual(rc.Journeys, want) || len(rc.Journeys) != 6 {
		t.Errorf("recent read back as %+v\nwant %+v", rc.Journeys, want)
	}
	if _, _, again := journeyRecording(t); !bytes.Equal(data, again) {
		t.Error("the same tracer state wrote different recordings")
	}

	other, err := Read(data)
	if err != nil {
		t.Fatal(err)
	}
	other.Journeys[5].Done = true
	other.Total[0].P99++
	d := strings.Join(Diff(rc, other, 0), "\n")
	if !strings.Contains(d, "recent journey 5 differs") || !strings.Contains(d, "whole-run histogram "+rc.HistNames[0]) {
		t.Errorf("diff misses the changed journey or row:\n%s", d)
	}
}

// wireRecording records a cluster's wire tracer beside a node's tracer
// over two windows: a packet n0→n1 completes in the first, and in the
// second one n1→n0 is dropped and another n0→n1 is still in flight at
// the footer. It returns the wire tracer and the recording.
func wireRecording(t testing.TB) (*journey.WireTracer, []byte) {
	reg := counters.NewRegistry()
	tr := journey.NewWireTracer(reg)
	var cycle uint64
	node, err := journey.NewTracer(nil, func() uint64 { return cycle })
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Every: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddSource("cluster", reg); err != nil {
		t.Fatal(err)
	}
	if err := r.AddJourneys("n0", node); err != nil {
		t.Fatal(err)
	}
	if err := r.AddJourneys("cluster", tr.Tracer); err != nil {
		t.Fatal(err)
	}
	if err := r.AddJourneys("n0", node); err == nil {
		t.Error("a second journey source named n0 accepted")
	}
	var buf bytes.Buffer
	r.SetWriter(&buf)
	r.Start(0)
	cycle = 10
	desc := node.NICDescQueued(0, 64, false)
	cycle = 12
	node.NICTxStarted(desc)
	cycle = 18
	node.NICTxDone(desc)
	id := tr.WireDeparted("n0", "n1", 64, desc, 10, 12, 20)
	tr.WireArrived(id, 50)
	tr.WireEnqueued(id, 51)
	tr.WireDrained(id, 90)
	r.Roll(100)
	tr.WireDropped(tr.WireDeparted("n1", "n0", 8, 0, 110, 110, 116))
	tr.WireArrived(tr.WireDeparted("n0", "n1", 16, 2, 120, 121, 130), 160)
	if err := r.AddJourneys("late", tr.Tracer); err == nil {
		t.Error("AddJourneys after Start accepted")
	}
	r.Flush(180)
	return tr, buf.Bytes()
}

// TestSpanFrames: a wire journey's "j" frame names both nodes and its
// link, the frames read back as the tracers' journeys, after every
// window and before the footer, the same tracer state writes the same
// bytes, and Diff reports a wire journey that differs.
func TestSpanFrames(t *testing.T) {
	tr, data := wireRecording(t)
	rc, err := Read(data)
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Clean || rc.Truncated || len(rc.Windows) != 2 || rc.Version != 2 {
		t.Fatalf("clean=%v truncated=%v windows=%d version=%d", rc.Clean, rc.Truncated, len(rc.Windows), rc.Version)
	}
	if len(rc.Journeys) != 4 || rc.Journeys[0].Kind != journey.KindNICDesc || rc.Journeys[0].Node != "n0" {
		t.Fatalf("recent journeys %+v, want n0's descriptor then the three wire journeys", rc.Journeys)
	}
	if wire := rc.Journeys[1:]; !reflect.DeepEqual(wire, tr.Retained()) {
		t.Errorf("wire journeys read back as %+v\nwant %+v", wire, tr.Retained())
	}
	if !reflect.DeepEqual(rc.Slowest[1:], tr.Slowest()) || len(rc.Slowest) != 2 {
		t.Errorf("slowest read back as %+v, want n0's descriptor and %+v", rc.Slowest, tr.Slowest())
	}
	w := rc.Journeys[1:]
	if !w[0].Done || w[0].E2E() != 80 || w[0].Link != rc.Journeys[0].ID || !w[1].Aborted ||
		w[1].T[journey.HopWireDepart] != 116 || w[2].T[journey.HopRxDrain] != 0 || w[2].To != "n1" {
		t.Errorf("wire journeys lost a stamp, a node or the link: %+v", w)
	}
	const frame = `{"k":"j","set":"recent","node":"n0","to":"n1","id":1,"kind":"wire","link":1,"addr":0,"size":64,"t":[10,12,20,50,51,90],"done":true}`
	if !bytes.Contains(data, []byte(frame)) {
		t.Errorf("recording lacks the frame %s", frame)
	}
	first, footer := bytes.Index(data, []byte(`{"k":"j"`)), bytes.Index(data, []byte(`{"k":"f"`))
	if first < bytes.LastIndex(data, []byte(`{"k":"w"`)) || footer < bytes.LastIndex(data, []byte(`{"k":"j"`)) {
		t.Error("journey frames are not between the last window and the footer")
	}
	if _, again := wireRecording(t); !bytes.Equal(data, again) {
		t.Error("the same tracer state wrote different recordings")
	}
	other, err := Read(data)
	if err != nil {
		t.Fatal(err)
	}
	other.Journeys[3].T[journey.HopWireArrive]++
	if d := strings.Join(Diff(rc, other, 0), "\n"); !strings.Contains(d, "recent journey 3 differs: n0 wire 3") {
		t.Errorf("diff misses the changed wire journey:\n%s", d)
	}
}

// tailEvents is a small pipeline tail: a store and a halt, the store's
// bus transaction and a line read.
func tailEvents() ([]obs.InstEvent, []obs.BusEvent) {
	return []obs.InstEvent{
			{Seq: 7, PC: 0x1000, Disasm: "stx %g1, [%o1]", Fetch: 2, Dispatch: 4, Issue: 5, Complete: 6, Retire: 9,
				IsMem: true, Addr: 0x4000_0000},
			{Seq: 8, PC: 0x1004, Disasm: "halt", Dispatch: 4, Retire: 10},
		}, []obs.BusEvent{
			{Start: 12, End: 30, Addr: 0x4000_0000, Size: 8, Write: true, IO: true},
			{Start: 36, End: 42, Addr: 0x2000, Size: 64},
		}
}

// pipelineRecording records one window of a counter and closes with
// the tailEvents pipeline tail.
func pipelineRecording(t testing.TB) []byte {
	reg, a, _, _ := testSource()
	r, err := New(Config{Every: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddSource("dev", reg); err != nil {
		t.Fatal(err)
	}
	if err := r.AddPipeline(tailEvents); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r.SetWriter(&buf)
	r.Start(0)
	*a = 3
	r.Roll(100)
	if err := r.AddPipeline(tailEvents); err == nil {
		t.Error("AddPipeline after Start accepted")
	}
	r.Flush(150)
	return buf.Bytes()
}

// TestPipelineFrames: the "i" and "b" frames read back as the tail, the
// instructions before the bus transactions, all after the last window
// and before the footer; the same tail writes the same bytes; and Diff
// reports an instruction or a bus transaction that differs.
func TestPipelineFrames(t *testing.T) {
	data := pipelineRecording(t)
	rc, err := Read(data)
	if err != nil {
		t.Fatal(err)
	}
	insts, bus := tailEvents()
	if !rc.Clean || rc.Truncated || len(rc.Windows) != 2 || !reflect.DeepEqual(rc.Insts, insts) || !reflect.DeepEqual(rc.Bus, bus) {
		t.Fatalf("clean=%v truncated=%v windows=%d, tail read back as %+v %+v",
			rc.Clean, rc.Truncated, len(rc.Windows), rc.Insts, rc.Bus)
	}
	i, b := bytes.Index(data, []byte(`{"k":"i"`)), bytes.Index(data, []byte(`{"k":"b"`))
	if i < bytes.LastIndex(data, []byte(`{"k":"w"`)) || b < bytes.LastIndex(data, []byte(`{"k":"i"`)) ||
		bytes.Index(data, []byte(`{"k":"f"`)) < bytes.LastIndex(data, []byte(`{"k":"b"`)) {
		t.Error("tail frames are not in window, instruction, bus, footer order")
	}
	if !bytes.Equal(data, pipelineRecording(t)) {
		t.Error("the same tail wrote different recordings")
	}
	other, err := Read(data)
	if err != nil {
		t.Fatal(err)
	}
	other.Insts[1].Retire++
	other.Bus[0].Size = 16
	d := strings.Join(Diff(rc, other, 0.5), "\n")
	if !strings.Contains(d, "instruction 1 differs") || !strings.Contains(d, "bus transaction 0 differs") {
		t.Errorf("diff misses the changed tail:\n%s", d)
	}
}

// TestReadMalformedPipeline: a tail frame the reader rejects ends the
// recording there as Truncated, keeping the frames before it: a stage
// stamp after retire, a zero retire stamp, a bus transaction that does
// not end after it starts, and a field of the wrong type.
func TestReadMalformedPipeline(t *testing.T) {
	data := pipelineRecording(t)
	for _, tc := range []struct {
		name, old, new string
		insts, bus     int
	}{
		{"stamp after retire", `"complete":6,`, `"complete":60,`, 0, 0},
		{"zero retire", `"retire":10`, `"retire":0`, 1, 0},
		{"no retire", `,"retire":10`, ``, 1, 0},
		{"bus ends at its start", `"end":30`, `"end":12`, 2, 0},
		{"bus ends before its start", `"end":42`, `"end":40,"start":41`, 2, 1},
		{"seq not a number", `"seq":8`, `"seq":"eight"`, 1, 0},
		{"disassembly not a string", `"dis":"halt"`, `"dis":7`, 1, 0},
		{"size not a number", `"size":64`, `"size":"line"`, 2, 1},
	} {
		rc, err := Read(reframe(data, func(doc string) string { return strings.Replace(doc, tc.old, tc.new, 1) }))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rc.Clean || !rc.Truncated || len(rc.Insts) != tc.insts || len(rc.Bus) != tc.bus || len(rc.Windows) != 2 {
			t.Errorf("%s: clean=%v truncated=%v insts=%d bus=%d windows=%d, want a truncated tail after %d and %d",
				tc.name, rc.Clean, rc.Truncated, len(rc.Insts), len(rc.Bus), len(rc.Windows), tc.insts, tc.bus)
		}
	}
}

// TestReadSkipsUnknownKind: a well-formed frame of a kind this reader
// does not know — even one giving a known field another type — is
// skipped, so the frames after it, the footer included, still read.
func TestReadSkipsUnknownKind(t *testing.T) {
	want, err := Read(sampleRecording(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{`{"k":"x","note":"from a newer writer"}`, `{"k":"x","c":"not a cycle"}`} {
		data := sampleRecording(t)
		at := bytes.LastIndexByte(data[:bytes.Index(data, []byte(`{"k":"f"`))-1], '\n') + 1
		data = append(fmt.Appendf(data[:at:at], "%d\n%s\n", len(doc), doc), data[at:]...)
		rc, err := Read(data)
		if err != nil {
			t.Fatal(err)
		}
		if !rc.Clean || rc.Truncated || !reflect.DeepEqual(rc.Total, want.Total) || rc.Total == nil {
			t.Errorf("%s: clean=%v truncated=%v total=%v, want the footer's %v", doc, rc.Clean, rc.Truncated, rc.Total, want.Total)
		}
	}
}

// reframe rewrites every frame's JSON document with edit and renews the
// length prefixes.
func reframe(data []byte, edit func(doc string) string) []byte {
	var out []byte
	for len(data) > 0 {
		doc, size := splitFrame(data)
		d := edit(string(doc))
		out = fmt.Appendf(out, "%d\n%s\n", len(d), d)
		data = data[size:]
	}
	return out
}

// TestReadMalformedFooterAndJourneys: a footer whose rows do not match
// the histogram table, and a journey of an unknown kind or set, end the
// recording there as Truncated; a footer written before the whole-run
// rows existed reads clean, with Total nil.
func TestReadMalformedFooterAndJourneys(t *testing.T) {
	_, _, data := journeyRecording(t)
	for _, tc := range []struct {
		name, old, new string
		clean          bool
	}{
		{"footer row count", `"total":[[`, `"total":[[0,0,0,0,0,0,0],[`, false},
		{"unknown kind", `"kind":"csb_store"`, `"kind":"dma_store"`, false},
		{"unknown set", `"set":"recent"`, `"set":"oldest"`, false},
		{"footer without rows", `,"total":[`, `,"untotal":[`, true},
	} {
		rc, err := Read(reframe(data, func(doc string) string { return strings.Replace(doc, tc.old, tc.new, 1) }))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rc.Clean != tc.clean || rc.Truncated == tc.clean || rc.Total != nil || len(rc.Windows) != 3 {
			t.Errorf("%s: clean=%v truncated=%v total=%v windows=%d", tc.name, rc.Clean, rc.Truncated, rc.Total, len(rc.Windows))
		}
	}
}

// TestReadMalformedSpans: a journey frame the reader rejects ends the
// recording there as Truncated, keeping the journeys before it: a zero
// or out-of-order ID within a node's kind, a missing node, a wire
// journey without its sender or receiver, one completed yet dropped,
// dropped with a receiver stamp, or with a stamp before the previous
// hop's, the wrong number of stamps, and a field of the wrong type.
func TestReadMalformedSpans(t *testing.T) {
	_, data := wireRecording(t)
	for _, tc := range []struct {
		name, old, new string
		kept           int
	}{
		{"zero ID", `"node":"n0","id":1,`, `"node":"n0","id":0,`, 0},
		{"IDs out of order", `"id":3,"kind":"wire"`, `"id":1,"kind":"wire"`, 3},
		{"no node", `"node":"n0","id":1,`, `"node":"","id":1,`, 0},
		{"no sender", `"node":"n1","to":"n0"`, `"node":"","to":"n0"`, 2},
		{"no receiver", `"to":"n1","id":3`, `"to":"","id":3`, 3},
		{"done and dropped", `90],"done":true}`, `90],"aborted":true,"done":true}`, 1},
		{"dropped after arriving", `"t":[120,121,130,160,0,0]`, `"t":[120,121,130,160,0,0],"aborted":true`, 3},
		{"drained before pushed", `"t":[10,12,20,50,51,90]`, `"t":[10,12,20,50,51,5]`, 1},
		{"too few stamps", `"t":[110,110,116,0,0,0]`, `"t":[110,110,116,0]`, 2},
		{"size not a number", `"size":8,`, `"size":"eight",`, 2},
	} {
		rc, err := Read(reframe(data, func(doc string) string {
			if !strings.Contains(doc, `"set":"recent"`) {
				return doc
			}
			return strings.Replace(doc, tc.old, tc.new, 1)
		}))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rc.Clean || !rc.Truncated || len(rc.Journeys) != tc.kept || len(rc.Windows) != 2 {
			t.Errorf("%s: clean=%v truncated=%v journeys=%d windows=%d, want a truncated tail after %d journeys",
				tc.name, rc.Clean, rc.Truncated, len(rc.Journeys), len(rc.Windows), tc.kept)
		}
	}
	// IDs count per sender: n1's first wire journey may follow n0's.
	rc, err := Read(reframe(data, func(doc string) string {
		return strings.Replace(doc, `"node":"n1","to":"n0","id":2,`, `"node":"n1","to":"n0","id":1,`, 1)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Clean || rc.Truncated || len(rc.Journeys) != 4 {
		t.Errorf("a second sender's first wire journey: clean=%v truncated=%v", rc.Clean, rc.Truncated)
	}
}

// TestReadGauges: the header's gauges list marks its series, Diff
// reports a series whose kind differs, and a gauge missing from the
// counter table is an error, not a panic or a series silently read as
// the wrong kind.
func TestReadGauges(t *testing.T) {
	rc, err := Read(gaugeRecording(t))
	if err != nil {
		t.Fatal(err)
	}
	var gauges []string
	for i, name := range rc.CtrNames {
		if rc.IsGauge(i) {
			gauges = append(gauges, name)
		}
	}
	if !reflect.DeepEqual(gauges, []string{"dev/depth"}) || len(rc.Gauge) != len(rc.CtrNames) {
		t.Errorf("gauges read back as %v (%d flags for %d series)", gauges, len(rc.Gauge), len(rc.CtrNames))
	}
	// Diff compares kinds before values.
	plain := *rc
	plain.Gauge = nil
	if d := Diff(rc, &plain, 0); len(d) != 1 || !strings.Contains(d[0], "dev/depth") {
		t.Errorf("diff against an all-counter copy = %q", d)
	}
	// A recording without the field is all counters.
	if rc, err := Read(sampleRecording(t)); err != nil || len(rc.Gauge) != len(rc.CtrNames) || rc.IsGauge(0) {
		t.Errorf("recording without gauges: %v, err %v", rc.Gauge, err)
	}
	bad := `{"k":"h","v":2,"every":100,"c":0,"sources":["dev"],"slo":[],"ctrn":["dev/alpha"],"gauges":["dev/beta"],"histn":[]}`
	if _, err := Read([]byte(fmt.Sprintf("%d\n%s\n", len(bad), bad))); err == nil ||
		!strings.Contains(err.Error(), `gauge "dev/beta"`) {
		t.Errorf("gauge outside the counter table read with error %v", err)
	}
}

// TestReadHugeLengthPrefix: a length prefix larger than the data left is
// an incomplete tail, not an index computation that overflows.
func TestReadHugeLengthPrefix(t *testing.T) {
	const crasher = "9223372036854775807\n{}\n"
	if _, err := Read([]byte(crasher)); err == nil {
		t.Error("headerless crasher accepted")
	}
	whole := sampleRecording(t)
	rc, err := Read(append(whole[:len(whole):len(whole)], crasher...))
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Clean || !rc.Truncated || len(rc.Windows) != 3 {
		t.Errorf("clean=%v truncated=%v windows=%d, want the clean prefix plus a truncated tail",
			rc.Clean, rc.Truncated, len(rc.Windows))
	}
}

// TestReadRejectsOldVersion: a version-1 file (its journeys have no
// node, its packets are "s" frames) is refused at the header; the
// FuzzRead seed recording_with_spans is such a file.
func TestReadRejectsOldVersion(t *testing.T) {
	v1 := bytes.Replace(sampleRecording(t), []byte(`"v":2,`), []byte(`"v":1,`), 1)
	if _, err := Read(v1); err == nil || !strings.Contains(err.Error(), "unsupported format version 1") {
		t.Errorf("version-1 header read with error %v", err)
	}
}

// TestParserFollowsAppends: frames become visible as the bytes that
// complete them arrive, and the parser is Done at the footer.
func TestParserFollowsAppends(t *testing.T) {
	whole := sampleRecording(t)
	var p Parser
	if _, err := p.Recording(); err == nil {
		t.Error("empty parser has a recording")
	}
	split := bytes.Index(whole, []byte(`{"k":"w","i":1`)) + 3
	p.Write(whole[:split])
	rc, err := p.Recording()
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Windows) != 1 || !rc.Truncated || p.Done() {
		t.Errorf("mid-frame: windows=%d truncated=%v done=%v, want 1/true/false",
			len(rc.Windows), rc.Truncated, p.Done())
	}
	p.Write(whole[split:])
	if rc, _ = p.Recording(); len(rc.Windows) != 3 || rc.Truncated || !p.Done() {
		t.Errorf("whole: windows=%d truncated=%v done=%v, want 3/false/true",
			len(rc.Windows), rc.Truncated, p.Done())
	}
}

// FuzzRead: no input panics the reader; a parsed recording has one kind
// per counter-table series and, when its footer has whole-run rows, one
// per histogram; once a header has parsed, no later byte
// turns the recording into an error; and feeding the bytes to a Parser
// in random chunks yields exactly what one Read does.
func FuzzRead(f *testing.F) {
	f.Add(sampleRecording(f), int64(1))
	_, wire := wireRecording(f)
	f.Add(wire, int64(2))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		want, wantErr := Read(data)
		if (want == nil) == (wantErr == nil) {
			t.Fatalf("Read returned recording %v with error %v", want != nil, wantErr)
		}
		if want != nil && len(want.Gauge) != len(want.CtrNames) {
			t.Fatalf("%d kinds for %d counter-table series", len(want.Gauge), len(want.CtrNames))
		}
		if want != nil && want.Total != nil && len(want.Total) != len(want.HistNames) {
			t.Fatalf("%d whole-run rows for %d histograms", len(want.Total), len(want.HistNames))
		}

		rng := rand.New(rand.NewSource(seed))
		var p Parser
		header := false
		for pos := 0; pos < len(data); {
			n := min(len(data)-pos, 1+rng.Intn(64))
			p.Write(data[pos : pos+n])
			pos += n
			_, err := p.Recording()
			if header && err != nil {
				t.Fatalf("error after the header parsed: %v", err)
			}
			header = err == nil
		}
		got, gotErr := p.Recording()
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("chunked error %v, Read error %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunked parse differs from Read:\n%+v\n%+v", got, want)
		}
	})
}
