package sim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"csbsim/internal/bus"
	"csbsim/internal/cpu"
	"csbsim/internal/mem"
	"csbsim/internal/obs"
	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/rec"
)

var update = flag.Bool("update", false, "rewrite golden files")

// storeLoop is a deterministic workload touching the CSB, the bus and the
// caches — enough to populate every report section the golden test pins.
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

func runStoreLoop(t *testing.T) *Machine {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.MapRange(0x4000_0000, 1<<16, mem.KindCombining)
	p, err := m.LoadSource("loop.s", storeLoop)
	if err != nil {
		t.Fatal(err)
	}
	m.WarmProgram(p)
	return m
}

// TestReportGolden pins the exact Report output for a deterministic run.
// Refresh with: go test ./internal/sim -run TestReportGolden -update
func TestReportGolden(t *testing.T) {
	m := runStoreLoop(t)
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	got := m.Stats().Report()

	golden := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("report drifted from golden file (refresh with -update if intended)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestMachineCPIInvariant checks the stack invariant at the machine level
// and that this workload's dominant stall is the CSB.
func TestMachineCPIInvariant(t *testing.T) {
	m := runStoreLoop(t)
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if total := s.CPU.CPI.Total(); total != s.CPU.Cycles {
		t.Fatalf("CPI stack sums to %d, cycles %d\n%s", total, s.CPU.Cycles, s.CPU.CPI.Format())
	}
	if s.CPU.CPI[obs.CauseCSB] == 0 {
		t.Errorf("CSB workload charged no csb-busy cycles:\n%s", s.ReportCPI())
	}
	if !strings.Contains(s.ReportCPI(), "csb-busy") {
		t.Error("ReportCPI missing the csb-busy bucket")
	}
}

// attachRecorder rides a flight recorder over reg on AttachPeriodic at
// the given cadence, sealed at the machine's current cycle, and returns
// the buffer the recording is written to.
func attachRecorder(t *testing.T, m *Machine, reg *counters.Registry, every uint64) *bytes.Buffer {
	t.Helper()
	r, err := rec.New(rec.Config{Every: every})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddSource("machine", reg); err != nil {
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
	return &buf
}

// readRecording parses a recording and looks series up by name.
func readRecording(t *testing.T, buf *bytes.Buffer) (*rec.Recording, func(name string) int) {
	t.Helper()
	rc, err := rec.Read(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return rc, func(name string) int {
		i := rc.CounterIndex("machine/" + name)
		if i < 0 {
			t.Fatalf("recording has no series machine/%s", name)
		}
		return i
	}
}

// occupancyGauges are the machine registry's gauges, with the live
// value each reads.
func occupancyGauges(m *Machine) map[string]int {
	return map[string]int{
		"csb/occupancy_bytes":   m.CSB.Occupancy(),
		"csb/pending_lines":     m.CSB.PendingLines(),
		"ub/depth":              m.UB.Len(),
		"cache/write_buf_depth": m.Hier.WriteBufDepth(),
	}
}

// TestRecorderSampling verifies the recorder's cadence on the machine
// (one window per interval plus the final flush), its counter semantics
// (every counter's window deltas sum to the machine's final count), and
// its gauges: exactly the four occupancies, each window's end value read
// live at the window's last cycle.
func TestRecorderSampling(t *testing.T) {
	m := runStoreLoop(t)
	buf := attachRecorder(t, m, m.AttachCounters(), 200)
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	m.FlushObs()
	m.FlushObs() // idempotent at the same cycle

	rc, col := readRecording(t, buf)
	cycles := m.Cycle()
	if len(rc.Windows) < int(cycles/200) || rc.Windows[len(rc.Windows)-1].C1 != cycles {
		t.Fatalf("%d windows over %d cycles, the last ending at %d", len(rc.Windows), cycles, rc.Windows[len(rc.Windows)-1].C1)
	}
	var prev uint64
	for _, w := range rc.Windows {
		if w.C0 != prev || w.C1 <= w.C0 {
			t.Fatalf("window (%d,%d] does not follow cycle %d", w.C0, w.C1, prev)
		}
		prev = w.C1
	}
	st := m.Stats()
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"cpu/retired", st.CPU.Retired},
		{"bus/bytes", st.Bus.Bytes},
		{"cache/l1d/misses", st.Caches.L1D.Misses},
		{"cpu/uncached_stores", st.CPU.UncachedStores},
		{"cpu/csb_stores", st.CPU.CSBStores},
	} {
		var sum uint64
		for _, w := range rc.Windows {
			sum += w.CtrDelta[col(c.name)]
		}
		if sum != c.want {
			t.Errorf("%s deltas sum to %d, machine says %d", c.name, sum, c.want)
		}
		if c.want == 0 && (c.name == "cpu/csb_stores" || c.name == "bus/bytes") {
			t.Errorf("store loop recorded no %s", c.name)
		}
	}
	var gauges []string
	for i, name := range rc.CtrNames {
		if rc.IsGauge(i) {
			gauges = append(gauges, name)
		}
	}
	want := "machine/cache/write_buf_depth machine/csb/occupancy_bytes machine/csb/pending_lines machine/ub/depth"
	if got := strings.Join(gauges, " "); got != want {
		t.Errorf("gauges %q, want %q", got, want)
	}
	last := &rc.Windows[len(rc.Windows)-1]
	for name, live := range occupancyGauges(m) {
		if got := last.CtrEnd[col(name)]; got != uint64(live) {
			t.Errorf("%s = %d at the final window, machine says %d", name, got, live)
		}
	}
}

// TestRecorderMidRun attaches the recorder to a machine already running
// the uncached stream: the first window counts only the cycles since
// attach, so its deltas match the Stats difference across it, and its
// gauges read the live occupancies at its end.
func TestRecorderMidRun(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.MapRange(0x4000_0000, 1<<16, mem.KindUncached)
	if _, err := m.LoadSource("uncached_stores.s", exampleSource(t, "uncached_stores.s")); err != nil {
		t.Fatal(err)
	}
	for m.Cycle() < 3000 {
		m.Tick()
	}
	before := m.Stats()
	buf := attachRecorder(t, m, m.AttachCounters(), 200)
	for m.Cycle() < 3200 {
		m.Tick()
	}
	after := m.Stats()
	rc, col := readRecording(t, buf)
	if len(rc.Windows) != 1 {
		t.Fatalf("got %d windows by cycle 3200, want 1", len(rc.Windows))
	}
	w := &rc.Windows[0]
	if w.C0 != 3000 || w.C1 != 3200 || w.CtrEnd[col("bus/cycles")] != after.BusCycles {
		t.Errorf("window (%d,%d] at bus cycle %d, want (3000,3200] and %d",
			w.C0, w.C1, w.CtrEnd[col("bus/cycles")], after.BusCycles)
	}
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"cpu/retired", after.CPU.Retired - before.CPU.Retired},
		{"bus/busy_cycles", after.Bus.BusyCycles - before.Bus.BusyCycles},
		{"bus/cycles", after.BusCycles - before.BusCycles},
		{"bus/bytes", after.Bus.Bytes - before.Bus.Bytes},
		{"cpu/uncached_stores", after.CPU.UncachedStores - before.CPU.UncachedStores},
	} {
		if got := w.CtrDelta[col(c.name)]; got != c.want || c.want == 0 {
			t.Errorf("%s delta %d, want %d (nonzero)", c.name, got, c.want)
		}
	}
	for name, live := range occupancyGauges(m) {
		if got := w.CtrEnd[col(name)]; got != uint64(live) {
			t.Errorf("%s = %d, machine says %d", name, got, live)
		}
	}
	if w.CtrEnd[col("ub/depth")] == 0 {
		t.Error("the saturated uncached stream recorded an empty uncached buffer")
	}
}

// recordTail attaches a recorder carrying the machine's pipeline tail
// (as csbsim -record does) and returns the function that closes it and
// reads it back.
func recordTail(t *testing.T, m *Machine) func() *rec.Recording {
	t.Helper()
	r, err := rec.New(rec.Config{Every: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.SetWriter(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.AddPipeline(m.AttachPipeline()); err != nil {
		t.Fatal(err)
	}
	return func() *rec.Recording {
		r.Flush(m.Cycle())
		rc, err := rec.Read(buf.Bytes())
		if err != nil || !rc.Clean || rc.Truncated {
			t.Fatalf("recording: err %v, %+v", err, rc)
		}
		return rc
	}
}

// TestPipelineTailOnSharedTimeline: a run shorter than the tail records
// every retired instruction, as the retire hook delivered it, and every
// bus transaction, both on the CPU-cycle timeline (bus events are
// converted from bus cycles, so nothing ends past the run).
func TestPipelineTailOnSharedTimeline(t *testing.T) {
	m := runStoreLoop(t)
	read := recordTail(t, m)
	var seqs []uint64
	m.CPU.AttachRetire(func(ev cpu.RetireEvent) { seqs = append(seqs, ev.Seq) })
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	rc := read()
	if len(rc.Insts) != len(seqs) || len(seqs) == 0 || len(rc.Bus) == 0 {
		t.Fatalf("tail holds %d instructions and %d bus transactions; %d retired",
			len(rc.Insts), len(rc.Bus), len(seqs))
	}
	end := m.Cycle() + uint64(m.Cfg.Ratio)
	for i, e := range rc.Insts {
		if e.Seq != seqs[i] || e.Disasm == "" || e.Retire > end {
			t.Fatalf("instruction %d: %+v, want seq %d retired by cycle %d", i, e, seqs[i], end)
		}
	}
	for _, e := range rc.Bus {
		if e.End > end || !e.IO || !e.Write {
			t.Errorf("bus transaction %+v: want an I/O write ending by cycle %d", e, end)
		}
	}
}

// TestPipelineTailKeepsNewest: a run that retires more instructions and
// completes more bus transactions than the tail holds writes exactly
// pipelineTail of each, the newest, oldest first. The watchdog, armed
// first, shares the grown ring and its dump still shows the last
// wdRingSize instructions.
func TestPipelineTailKeepsNewest(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.MapRange(0x4000_0000, 1<<16, mem.KindUncached)
	p, err := m.LoadSource("stores.s", `
	set 0x40000000, %o1
	set 5000, %g2
loop:
	stx %g2, [%o1]
	subcc %g2, 1, %g2
	bnz loop
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m.WarmProgram(p)
	if err := m.SetWatchdog(100_000); err != nil {
		t.Fatal(err)
	}
	read := recordTail(t, m)
	var seqs, starts []uint64
	m.CPU.AttachRetire(func(ev cpu.RetireEvent) { seqs = append(seqs, ev.Seq) })
	m.Bus.AttachObserver(func(t *bus.Txn) { starts = append(starts, t.Start*uint64(m.Cfg.Ratio)) })
	if err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	rc := read()
	if len(seqs) <= pipelineTail || len(starts) <= pipelineTail {
		t.Fatalf("%d instructions and %d bus transactions do not overflow the %d-event tail",
			len(seqs), len(starts), pipelineTail)
	}
	if len(rc.Insts) != pipelineTail || len(rc.Bus) != pipelineTail {
		t.Fatalf("tail holds %d instructions and %d bus transactions, want %d of each",
			len(rc.Insts), len(rc.Bus), pipelineTail)
	}
	seqs, starts = seqs[len(seqs)-pipelineTail:], starts[len(starts)-pipelineTail:]
	for i := range rc.Insts {
		if rc.Insts[i].Seq != seqs[i] || rc.Bus[i].Start != starts[i] {
			t.Fatalf("entry %d: seq %d, bus start %d; want the newest, seq %d, bus start %d",
				i, rc.Insts[i].Seq, rc.Bus[i].Start, seqs[i], starts[i])
		}
	}
	if m.retired.Cap() != pipelineTail || !strings.Contains(m.DiagnosticDump(), "--- last 32 retired instructions ---") {
		t.Errorf("ring holds %d; the dump lost its last %d instructions", m.retired.Cap(), wdRingSize)
	}
}

// TestUnattachedMachineHasNoObservers documents the nil-cost-off design:
// a plain machine carries no observers or periodic hooks.
func TestUnattachedMachineHasNoObservers(t *testing.T) {
	m := runStoreLoop(t)
	if len(m.periodicHooks) != 0 || m.retired != nil || m.busTail != nil {
		t.Error("fresh machine has observability state attached")
	}
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	m.FlushObs() // must be a no-op, not a panic
}

// TestAttachPeriodic verifies the generic periodic hooks: one firing per
// interval per hook while running, plus exactly one more each from the
// final flush, and independent cadences for coexisting hooks.
func TestAttachPeriodic(t *testing.T) {
	m := runStoreLoop(t)
	if err := m.AttachPeriodic(0, func(uint64) {}); err == nil {
		t.Error("zero interval accepted")
	}
	if err := m.AttachPeriodic(10, nil); err == nil {
		t.Error("nil hook accepted")
	}
	var fired int
	var lastCycle uint64
	if err := m.AttachPeriodic(250, func(cycle uint64) {
		fired++
		if cycle < lastCycle {
			t.Fatalf("periodic cycle went backwards: %d after %d", cycle, lastCycle)
		}
		lastCycle = cycle
	}); err != nil {
		t.Fatal(err)
	}
	var fired2 int
	if err := m.AttachPeriodic(700, func(uint64) { fired2++ }); err != nil {
		t.Fatalf("second periodic attach rejected: %v", err)
	}
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	m.FlushObs()
	firedAtFlush, fired2AtFlush := fired, fired2
	m.FlushObs() // a second flush at the same cycle fires nothing
	if fired != firedAtFlush || fired2 != fired2AtFlush {
		t.Errorf("second flush at cycle %d fired the hooks again", m.Cycle())
	}
	want := int(m.Cycle() / 250)
	if fired < want || fired > want+2 {
		t.Errorf("hook fired %d times over %d cycles (interval 250)", fired, m.Cycle())
	}
	if lastCycle != m.Cycle() {
		t.Errorf("final flush fired at cycle %d, machine at %d", lastCycle, m.Cycle())
	}
	want2 := int(m.Cycle() / 700)
	if fired2 < want2 || fired2 > want2+2 {
		t.Errorf("second hook fired %d times over %d cycles (interval 700)", fired2, m.Cycle())
	}
}

// TestObservedEffort holds the single-machine observers to their cost in
// simulator work, which unlike their wall time is exact. Both §4.3.1
// streams run through Run and Drain bare and again with the journey
// tracer plus a flight recorder on AttachPeriodic. The observed run must
// simulate the same machine, and each recorder window may add at most
// one full tick and two steps: a hook fires in a full tick, so a window
// edge ends the quiet stretch it falls in.
func TestObservedEffort(t *testing.T) {
	run := func(file string, kind mem.Kind, every uint64) *Machine {
		m, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		m.MapRange(0x4000_0000, 1<<16, kind)
		p, err := m.LoadSource(file, exampleSource(t, file))
		if err != nil {
			t.Fatal(err)
		}
		m.WarmProgram(p)
		if every != 0 {
			if _, err := m.AttachJourneys(); err != nil {
				t.Fatal(err)
			}
			attachRecorder(t, m, m.Counters(), every)
		}
		if err := m.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		if err := m.Drain(1_000_000); err != nil {
			t.Fatal(err)
		}
		return m
	}
	simulated := func(m *Machine) Stats {
		s := m.Stats()
		s.Counters = nil
		return s
	}
	for _, stream := range []struct {
		file string
		kind mem.Kind
	}{{"csb_stores.s", mem.KindCombining}, {"uncached_stores.s", mem.KindUncached}} {
		bare := run(stream.file, stream.kind, 0)
		be := bare.Effort()
		for _, every := range []uint64{1000, 250} {
			m := run(stream.file, stream.kind, every)
			if !reflect.DeepEqual(simulated(m), simulated(bare)) {
				t.Fatalf("%s every %d: observers changed the simulated machine", stream.file, every)
			}
			e, windows := m.Effort(), m.Cycle()/every
			if e.AsleepCycles != be.AsleepCycles || e.FullTicks < be.FullTicks ||
				e.FullTicks-be.FullTicks > windows || e.Steps < be.Steps || e.Steps-be.Steps > 2*windows {
				t.Errorf("%s every %d: effort %+v over %d windows, bare %+v", stream.file, every, e, windows, be)
			}
			t.Logf("%s every %d: %d windows add %d full ticks, %d steps",
				stream.file, every, windows, e.FullTicks-be.FullTicks, e.Steps-be.Steps)
		}
	}
}
