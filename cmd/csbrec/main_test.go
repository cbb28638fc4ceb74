package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"csbsim/internal/mem"
	"csbsim/internal/obs"
	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/journey"
	"csbsim/internal/obs/rec"
	"csbsim/internal/sim"
)

// writeRecording records three windows of a counter that only rises, a
// gauge that falls in the second window, and a histogram, and returns
// the file's path.
func writeRecording(t *testing.T) string {
	t.Helper()
	reg := counters.NewRegistry()
	var sent, depth uint64
	reg.Counter("sent", func() uint64 { return sent })
	reg.Gauge("depth", func() uint64 { return depth })
	lat := reg.Histogram("lat")
	r, err := rec.New(rec.Config{Every: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddSource("dev", reg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.SetWriter(&buf); err != nil {
		t.Fatal(err)
	}
	r.Start(0)
	sent, depth = 10, 5
	lat.Record(12)
	r.Roll(100)
	sent, depth = 16, 2
	r.Roll(200)
	sent, depth = 30, 4
	lat.Record(40)
	lat.Record(90)
	r.Flush(250)
	path := filepath.Join(t.TempDir(), "run.rec")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func run(t *testing.T, cmd func([]string, io.Writer) error, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := cmd(args, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestSeriesAndSlice pins how each kind renders: a counter by its
// change, the gauge by its value (end and the range of window-end
// values in series; the value in slice), never by its wrapped delta,
// and a histogram in series by the footer's whole-run row, or by the
// range of its window p99s when there is no footer.
func TestSeriesAndSlice(t *testing.T) {
	path := writeRecording(t)
	head := "" +
		"gauge dev/depth                                   end=4          min=2 max=5\n" +
		"ctr  dev/sent                                     end=30         delta=30         rate=120.000/kcycle peak_window=14\n"
	if got, want := run(t, cmdSeries, path), head+
		"hist dev/lat                                      n=3        min=12 p50=15 p95=63 p99=63 max=90 mean=47.3\n"; got != want {
		t.Errorf("series:\n got %q\nwant %q", got, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	unclosed := filepath.Join(t.TempDir(), "unclosed.rec")
	footer := bytes.LastIndexByte(data[:bytes.LastIndex(data, []byte(`{"k":"f"`))-1], '\n') + 1
	if err := os.WriteFile(unclosed, data[:footer], 0o644); err != nil {
		t.Fatal(err)
	}
	if got, want := run(t, cmdSeries, unclosed), head+
		"hist dev/lat                                      n=3        p99=[12..63] worst_window=(200,250]\n"; got != want {
		t.Errorf("series without a footer:\n got %q\nwant %q", got, want)
	}
	// A window covers (C0,C1]: -to 200 ends inside (100,200] and must
	// not reach (200,250], which holds no cycle at or before 200.
	want := "" +
		"window 1 (100,200]\n" +
		"  gauge dev/depth                                   value=2\n" +
		"  ctr  dev/sent                                     end=16         delta=6\n" +
		"  hist dev/lat                                      n=0\n"
	for _, to := range []string{"199", "200"} {
		if got := run(t, cmdSlice, "-from", "150", "-to", to, path); got != want {
			t.Errorf("slice -from 150 -to %s:\n got %q\nwant %q", to, got, want)
		}
	}
}

// TestPerfettoPlotsGaugeValues: the gauge's track carries its values
// (5, 2, 4), so no counter event reaches 2^63, where a falling gauge's
// wrapped delta would land, and the histogram's p99 track skips the
// (100,200] window, which took no samples, instead of plotting a 0.
func TestPerfettoPlotsGaugeValues(t *testing.T) {
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   uint64 `json:"ts"`
			Args struct {
				Value json.Number `json:"value"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	dec := json.NewDecoder(bytes.NewBufferString(run(t, cmdPerfetto, writeRecording(t))))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var got string
	for _, e := range doc.TraceEvents {
		if e.Ph != "C" {
			continue
		}
		if v, err := strconv.ParseFloat(string(e.Args.Value), 64); err != nil || v >= 1<<63 {
			t.Errorf("%s at %d plots %s", e.Name, e.Ts, e.Args.Value)
		}
		got += e.Name + "@" + strconv.FormatUint(e.Ts, 10) + "=" + string(e.Args.Value) + "\n"
	}
	want := "" +
		"dev/depth@100=5\ndev/sent (delta)@100=10\ndev/lat p99@100=12\n" +
		"dev/depth@200=2\ndev/sent (delta)@200=6\n" +
		"dev/depth@250=4\ndev/sent (delta)@250=14\ndev/lat p99@250=63\n"
	if got != want {
		t.Errorf("counter tracks:\n got %q\nwant %q", got, want)
	}
}

// recordRun records a run of m the way `csbsim -journeys -record FILE
// -record-every N` does: one window per every cycles, then the
// journeys, the pipeline tail and the footer. drive runs the machine.
// It returns the tracer and the file.
func recordRun(t *testing.T, m *sim.Machine, every uint64, drive func() error) (*journey.Tracer, string) {
	t.Helper()
	tr, err := m.AttachJourneys()
	if err != nil {
		t.Fatal(err)
	}
	r, err := rec.New(rec.Config{Every: every})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddSource("machine", m.AttachCounters()); err != nil {
		t.Fatal(err)
	}
	if err := r.AddJourneys("machine", tr); err != nil {
		t.Fatal(err)
	}
	if err := r.AddPipeline(m.AttachPipeline()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.SetWriter(&buf); err != nil {
		t.Fatal(err)
	}
	r.Start(m.Cycle())
	if err := m.AttachPeriodic(every, r.Roll); err != nil {
		t.Fatal(err)
	}
	if err := drive(); err != nil {
		t.Fatal(err)
	}
	m.FlushObs()
	r.Flush(m.Cycle())
	path := filepath.Join(t.TempDir(), "run.rec")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return tr, path
}

// recordCSBStores records examples/asm/csb_stores.s as `csbsim
// -combining 0x40000000:64K -journeys -record FILE -record-every 500`
// does, and returns the tracer, the machine's registry and the file.
func recordCSBStores(t *testing.T) (*journey.Tracer, *counters.Registry, string) {
	t.Helper()
	m, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.MapRange(0x4000_0000, 64<<10, mem.KindCombining)
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "asm", "csb_stores.s"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadSource("csb_stores.s", string(src)); err != nil {
		t.Fatal(err)
	}
	tr, path := recordRun(t, m, 500, func() error { return m.Run(10_000_000) })
	return tr, m.Counters(), path
}

// TestJourneysAndTotalsFromRecording: on a recorded CSB store stream,
// `journeys` prints exactly the tracer's slowest set, on the recording's
// node, and `series` prints every histogram's whole-run Summary, though
// the run spans several windows whose quantiles could not be merged
// into it.
func TestJourneysAndTotalsFromRecording(t *testing.T) {
	tr, reg, path := recordCSBStores(t)
	slow := tr.Slowest()
	for i := range slow {
		if slow[i].Kind != journey.KindCSBStore {
			t.Fatalf("slowest journey %+v is no CSB store", slow[i])
		}
		slow[i].Node = "machine"
	}
	var want bytes.Buffer
	fmt.Fprintf(&want, "slowest %d csb_store journeys:\n", len(slow))
	journeyTable(&want, journey.KindCSBStore, slow)
	if got := run(t, cmdJourneys, "-top", "100", path); got != want.String() {
		t.Errorf("journeys:\n got %s\nwant %s", got, want.String())
	}
	lines := strings.Split(want.String(), "\n")
	if head, row := strings.Join(strings.Fields(lines[1]), " "), strings.Join(strings.Fields(lines[2]), " "); head !=
		"node id addr size start flush_ok bus_grant bus_complete e2e flags" ||
		row != "machine 1 0x40000000 8 139 +94 +1 +54 149" {
		t.Errorf("slowest journey:\n%s\n%s", head, row)
	}

	got := map[string]string{}
	for _, line := range strings.Split(run(t, cmdSeries, "-m", "machine/journey/*", path), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "hist" {
			got[f[1]] = strings.Join(f[2:], " ")
		}
	}
	hists := 0
	reg.VisitHistograms(func(h *counters.Histogram) {
		hists++
		s := h.Summary()
		want := "n=0"
		if s.Count > 0 {
			want = fmt.Sprintf("n=%d min=%d p50=%d p95=%d p99=%d max=%d mean=%.1f", s.Count, s.Min, s.P50, s.P95, s.P99, s.Max, s.Mean)
		}
		if name := "machine/" + h.Name(); got[name] != want {
			t.Errorf("series %s: got %q, want %q", name, got[name], want)
		}
	})
	if len(got) != hists || got["machine/journey/e2e/csb_store"] != "n=504 min=56 p50=127 p95=127 p99=127 max=149 mean=104.7" {
		t.Errorf("series printed %d histograms of %d: %v", len(got), hists, got)
	}
}

// writeWireRecording records a cluster's wire tracer and a sender's
// tracer over one window: a packet n0→n1 that completes, continuing
// n0's descriptor journey, one n1→n0 the fabric drops, and one n0→n1
// still on the wire at the footer. It returns the file's path.
func writeWireRecording(t *testing.T) string {
	t.Helper()
	reg := counters.NewRegistry()
	tr := journey.NewWireTracer(reg)
	var cycle uint64
	n0, err := journey.NewTracer(nil, func() uint64 { return cycle })
	if err != nil {
		t.Fatal(err)
	}
	r, err := rec.New(rec.Config{Every: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddSource("cluster", reg); err != nil {
		t.Fatal(err)
	}
	for _, src := range []struct {
		name string
		t    *journey.Tracer
	}{{"n0", n0}, {"cluster", tr.Tracer}} {
		if err := r.AddJourneys(src.name, src.t); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := r.SetWriter(&buf); err != nil {
		t.Fatal(err)
	}
	r.Start(0)
	cycle = 10
	desc := n0.NICDescQueued(0, 64, false)
	cycle = 12
	n0.NICTxStarted(desc)
	cycle = 19
	n0.NICTxDone(desc)
	id := tr.WireDeparted("n0", "n1", 64, desc, 10, 12, 20)
	tr.WireArrived(id, 140)
	tr.WireEnqueued(id, 141)
	tr.WireDrained(id, 200)
	tr.WireDropped(tr.WireDeparted("n1", "n0", 8, 0, 300, 302, 310))
	tr.WireDeparted("n0", "n1", 16, 8, 500, 501, 510)
	r.Flush(600)
	path := filepath.Join(t.TempDir(), "wire.rec")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPerfettoDrawsSpans: the export draws one process per node, with
// the sender's descriptor journey, a wire tx slice per packet sent, and
// an rx slice and a wire flow arrow from sender to receiver per packet
// that arrived; a dropped packet's slice says so.
func TestPerfettoDrawsSpans(t *testing.T) {
	out := run(t, cmdPerfetto, writeWireRecording(t))
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("perfetto not valid JSON: %v", err)
	}
	var procs, wireSlices, flowS, flowF int
	for _, ev := range doc.TraceEvents {
		if ev["pid"] == 99.0 {
			continue // the recorder's counter tracks
		}
		switch ev["ph"] {
		case "M":
			if ev["name"] == "process_name" {
				procs++
			}
		case "X":
			if tid := int(ev["tid"].(float64)); tid == tidWireTx || tid == tidWireRx {
				wireSlices++
			}
		case "s":
			flowS++
		case "f":
			flowF++
		}
	}
	// Completed packet: tx + rx slices; dropped and in-flight: tx only.
	if procs != 2 || wireSlices != 4 || flowS != 1 || flowF != 1 {
		t.Errorf("processes=%d wire slices=%d flows s/f=%d/%d, want 2, 4, 1/1", procs, wireSlices, flowS, flowF)
	}
	for _, want := range []string{`"bp":"e"`, `"dropped":true`, `"name":"node n1"`, `"e2e":190`,
		`"name":"nic_descriptor @0x0"`, `"link":1`} {
		if !strings.Contains(out, want) {
			t.Errorf("perfetto export misses %s", want)
		}
	}
}

// TestJourneysListsSpans: a cluster recording's journeys print one
// table per kind, slowest completed first and most recent last, with
// each hop as the cycles since the previous stamp, a wire journey's
// route, its link to the sender's descriptor journey and its drop;
// summary counts them.
func TestJourneysListsSpans(t *testing.T) {
	path := writeWireRecording(t)
	var rows []string
	for _, line := range strings.Split(run(t, cmdJourneys, "-recent", "2", path), "\n") {
		rows = append(rows, strings.Join(strings.Fields(line), " "))
	}
	want := []string{
		"slowest 1 nic_descriptor journeys:",
		"node id addr size start tx_start tx_done e2e flags",
		"n0 1 0x0 64 10 +2 +7 9",
		"slowest 1 wire journeys:",
		"node id size start tx_start wire_depart wire_arrive rx_enqueue rx_drain e2e flags",
		"n0->n1 1 64 10 +2 +8 +120 +1 +59 190 link=1",
		"most recent 1 nic_descriptor journeys:",
		"node id addr size start tx_start tx_done e2e flags",
		"n0 1 0x0 64 10 +2 +7 9",
		"most recent 2 wire journeys:",
		"node id size start tx_start wire_depart wire_arrive rx_enqueue rx_drain e2e flags",
		"n1->n0 2 8 300 +2 +8 - - - - dropped@310",
		"n0->n1 3 16 500 +1 +9 - - - - in-flight,link=8",
		"",
	}
	if strings.Join(rows, "\n") != strings.Join(want, "\n") {
		t.Errorf("journeys:\n got %q\nwant %q", rows, want)
	}
	if got := run(t, cmdSummary, path); !strings.Contains(got, "journeys:  4 recent (2 completed, 1 aborted)") {
		t.Errorf("summary misses the journey count:\n%s", got)
	}
	if got := strings.Join(strings.Fields(run(t, cmdJourneys, "-kind", "wire", "-top", "0", "-recent", "1", path)), " "); !strings.Contains(got, "n0->n1 3 16") ||
		strings.Contains(got, "nic_descriptor") {
		t.Errorf("journeys -kind wire:\n%s", got)
	}
	// A negative count shows nothing, as -recent 0 and -top 0 do.
	if got := run(t, cmdJourneys, "-top", "-1", "-recent", "-1", path); got != "" {
		t.Errorf("journeys -top -1 -recent -1 printed:\n%s", got)
	}
}

// storeLoop gathers eight doublewords into one CSB line per iteration
// and flushes it with a swap, eight times over.
const storeLoop = `
	set 0x40000000, %o1
	mov 8, %g2
loop:
	mov 8, %l4
	stx %g1, [%o1]
	stx %g1, [%o1+8]
	stx %g1, [%o1+16]
	stx %g1, [%o1+24]
	stx %g1, [%o1+32]
	stx %g1, [%o1+40]
	stx %g1, [%o1+48]
	stx %g1, [%o1+56]
	swap [%o1], %l4
	subcc %g2, 1, %g2
	bnz loop
	mov 3, %o0
	trap 2
	halt
`

// recordStoreLoop records storeLoop, warmed, run to halt and drained.
// The run is shorter than the pipeline tail, so the recording holds
// every instruction and bus transaction.
func recordStoreLoop(t *testing.T) string {
	t.Helper()
	m, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.MapRange(0x4000_0000, 1<<16, mem.KindCombining)
	p, err := m.LoadSource("loop.s", storeLoop)
	if err != nil {
		t.Fatal(err)
	}
	m.WarmProgram(p)
	_, path := recordRun(t, m, 10_000, func() error {
		if err := m.Run(1_000_000); err != nil {
			return err
		}
		return m.Drain(1_000_000)
	})
	return path
}

// perfettoEvents renders a recording and returns its trace events.
func perfettoEvents(t *testing.T, path string) []json.RawMessage {
	t.Helper()
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(run(t, cmdPerfetto, path)), &doc); err != nil {
		t.Fatalf("perfetto not valid JSON: %v", err)
	}
	return doc.TraceEvents
}

// TestJourneyFlowsGolden pins the journeys' rendering from a recording:
// the "memory system" track slices, the per-hop segments, and the s/t/f
// flow arrows binding pipeline → journey → bus. The golden is the
// output of the exporter that wrote a separate trace before the
// recording carried the pipeline tail; it is not regenerated.
func TestJourneyFlowsGolden(t *testing.T) {
	// Keep only the journey-related events: everything on the memory
	// system track plus the flow arrows (which span all three tracks).
	var kept []json.RawMessage
	for _, raw := range perfettoEvents(t, recordStoreLoop(t)) {
		var e struct {
			Cat string `json:"cat"`
			PID int    `json:"pid"`
		}
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		if e.PID == pidMem || e.Cat == "journey" {
			kept = append(kept, raw)
		}
	}
	got, err := json.MarshalIndent(kept, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "journey_flows.golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("journey flow events drifted from %s\ngot %d bytes, want %d", golden, len(got), len(want))
	}
}

// TestPerfettoDrawsPipeline: the export draws one slice per recorded
// instruction on the cpu process, rotating across every lane, with its
// stage stamps and, for a store, its address; one slice per bus
// transaction on the bus process; and no zero-width slice, which would
// vanish in the UI.
func TestPerfettoDrawsPipeline(t *testing.T) {
	path := recordStoreLoop(t)
	rc, err := rec.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lanesSeen := map[int]bool{}
	var insts, bus, stores int
	for _, raw := range perfettoEvents(t, path) {
		var e traceEvent
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		if e.Ph != "X" || e.PID == pidMem {
			continue
		}
		if e.Dur == 0 {
			t.Errorf("zero-width slice %q", e.Name)
		}
		switch e.PID {
		case pidCPU:
			insts++
			lanesSeen[e.TID] = true
			if e.Args["retire"] == nil || e.Args["seq"] == nil {
				t.Errorf("instruction %q lacks its stamps: %v", e.Name, e.Args)
			}
			if strings.HasPrefix(e.Name, "stx") && e.Args["va"] != nil {
				stores++
			}
		case pidBus:
			bus++
		}
	}
	if insts != len(rc.Insts) || bus != len(rc.Bus) || len(lanesSeen) != lanes || stores != 64 {
		t.Errorf("%d instruction slices on %d lanes (%d stores with an address), %d bus slices; want %d on %d lanes (64), %d",
			insts, len(lanesSeen), stores, bus, len(rc.Insts), lanes, len(rc.Bus))
	}
}

// TestPipeview: the diagram has one row per instruction asked for, the
// newest last, each marked with its retire cycle, and -n beyond the tail
// draws all of it; a count below one and a recording without a pipeline
// tail are errors.
func TestPipeview(t *testing.T) {
	path := recordStoreLoop(t)
	rc, err := rec.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := run(t, cmdPipeview, "-n", "5", path)
	if want := obs.FormatPipeline(rc.Insts[len(rc.Insts)-5:]); out != want {
		t.Errorf("pipeview:\n%s\nwant\n%s", out, want)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 7 || !strings.HasSuffix(lines[6], rc.Insts[len(rc.Insts)-1].Disasm) || !strings.Contains(lines[6], "R") {
		t.Errorf("want a header, a ruler and 5 rows ending with the last instruction:\n%s", out)
	}
	if all := run(t, cmdPipeview, "-n", "100000", path); all != obs.FormatPipeline(rc.Insts) {
		t.Errorf("pipeview -n 100000 does not draw the whole tail:\n%s", all)
	}
	for _, args := range [][]string{{"-n", "0", path}, {"-n", "-3", path}, {writeRecording(t)}} {
		if err := cmdPipeview(args, io.Discard); err == nil {
			t.Errorf("pipeview %v succeeded", args)
		}
	}
}

// TestHelpFlagSucceeds: -h on every subcommand prints its flags and exits
// 0, as `csbrec help` does, without an error line; an unknown flag still
// fails.
func TestHelpFlagSucceeds(t *testing.T) {
	want := []string{"check", "diff", "events", "journeys", "perfetto", "pipeview", "series", "slice", "summary", "top"}
	var got []string
	for name := range commands {
		got = append(got, name)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("commands %v, want %v", got, want)
	}
	for _, name := range want {
		var out, errs bytes.Buffer
		if code := dispatch(name, []string{"-h"}, &out, &errs); code != 0 || errs.Len() != 0 {
			t.Errorf("csbrec %s -h: exit %d, stderr %q; want exit 0 and no error", name, code, errs.String())
		}
		errs.Reset()
		if code := dispatch(name, []string{"-no-such-flag"}, &out, &errs); code != 1 || !strings.Contains(errs.String(), "not defined") {
			t.Errorf("csbrec %s -no-such-flag: exit %d, stderr %q; want exit 1 and the flag error", name, code, errs.String())
		}
	}
}
