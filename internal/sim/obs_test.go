package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csbsim/internal/mem"
	"csbsim/internal/obs"
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

// TestAttachMetricsSampling verifies the sampler cadence (one sample per
// interval plus the final flush) and the delta semantics: every rate
// field's deltas sum to the machine's final count.
func TestAttachMetricsSampling(t *testing.T) {
	m := runStoreLoop(t)
	var buf bytes.Buffer
	w := obs.NewMetricsWriter(&buf, obs.FormatJSONL)
	if err := m.AttachMetrics(w, 200); err != nil {
		t.Fatal(err)
	}
	if err := m.AttachMetrics(w, 200); err == nil {
		t.Error("second sampler attach accepted")
	}
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	m.FlushObs()
	m.FlushObs() // idempotent at the same cycle

	cycles := m.Cycle()
	wantMin := int(cycles / 200)
	if w.Count() < wantMin {
		t.Fatalf("%d samples over %d cycles, want >= %d", w.Count(), cycles, wantMin)
	}
	var prevCycle uint64
	var sum obs.Sample
	for _, s := range parseSamples(t, buf.String()) {
		if s.Cycle <= prevCycle {
			t.Fatalf("samples not monotone: %d after %d", s.Cycle, prevCycle)
		}
		prevCycle = s.Cycle
		sum.Retired += s.Retired
		sum.BusBytes += s.BusBytes
		sum.L1DMisses += s.L1DMisses
		sum.UncachedStores += s.UncachedStores
		sum.CSBStores += s.CSBStores
	}
	st := m.Stats()
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"retired", sum.Retired, st.CPU.Retired},
		{"bus_bytes", sum.BusBytes, st.Bus.Bytes},
		{"l1d_misses", sum.L1DMisses, st.Caches.L1D.Misses},
		{"uncached_stores", sum.UncachedStores, st.CPU.UncachedStores},
		{"csb_stores", sum.CSBStores, st.CPU.CSBStores},
	} {
		if c.got != c.want {
			t.Errorf("sample %s deltas sum to %d, machine says %d", c.name, c.got, c.want)
		}
	}
	if sum.CSBStores == 0 || sum.BusBytes == 0 {
		t.Errorf("store loop sampled no CSB stores or bus bytes: %+v", sum)
	}
}

func parseSamples(t *testing.T, stream string) []obs.Sample {
	t.Helper()
	var out []obs.Sample
	for _, line := range strings.Split(strings.TrimSpace(stream), "\n") {
		var s obs.Sample
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		out = append(out, s)
	}
	return out
}

// TestAttachMetricsMidRun attaches the sampler to a machine already
// running the uncached stream: the first sample counts only the window
// since attach, so its deltas match the Stats difference across it.
func TestAttachMetricsMidRun(t *testing.T) {
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
	var buf bytes.Buffer
	if err := m.AttachMetrics(obs.NewMetricsWriter(&buf, obs.FormatJSONL), 200); err != nil {
		t.Fatal(err)
	}
	for m.Cycle() < 3200 {
		m.Tick()
	}
	after := m.Stats()
	samples := parseSamples(t, buf.String())
	if len(samples) != 1 {
		t.Fatalf("got %d samples by cycle 3200, want 1:\n%s", len(samples), buf.String())
	}
	s := samples[0]
	retired := after.CPU.Retired - before.CPU.Retired
	busBusy := after.Bus.BusyCycles - before.Bus.BusyCycles
	busCycles := after.BusCycles - before.BusCycles
	if s.Cycle != 3200 || s.BusCycle != after.BusCycles {
		t.Errorf("sample at cycle %d bus cycle %d, want 3200 and %d", s.Cycle, s.BusCycle, after.BusCycles)
	}
	if s.Retired != retired || s.IPC != float64(retired)/200 {
		t.Errorf("retired %d ipc %g, want %d over the 200-cycle window", s.Retired, s.IPC, retired)
	}
	if want := 100 * float64(busBusy) / float64(busCycles); s.BusBusyPct != want {
		t.Errorf("bus_busy_pct %g, want %g (%d of %d bus cycles)", s.BusBusyPct, want, busBusy, busCycles)
	}
	if want := after.Bus.Bytes - before.Bus.Bytes; s.BusBytes != want {
		t.Errorf("bus_bytes %d, want %d", s.BusBytes, want)
	}
	if want := after.CPU.UncachedStores - before.CPU.UncachedStores; s.UncachedStores != want || want == 0 {
		t.Errorf("uncached_stores %d, want %d (nonzero)", s.UncachedStores, want)
	}
}

// TestAttachPerfettoIntegration runs an instrumented machine and checks
// the exported trace holds instruction, bus and counter events on the
// shared CPU-cycle timeline.
func TestAttachPerfettoIntegration(t *testing.T) {
	m := runStoreLoop(t)
	p := obs.NewPerfetto()
	m.AttachPerfetto(p)
	var buf bytes.Buffer
	if err := m.AttachMetrics(obs.NewMetricsWriter(&buf, obs.FormatJSONL), 500); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	m.FlushObs()
	if p.Count() == 0 {
		t.Fatal("no instructions recorded")
	}

	var out bytes.Buffer
	if _, err := p.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Ts  uint64 `json:"ts"`
			Dur uint64 `json:"dur"`
			PID int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	cycles := m.Cycle()
	var busSlices, counters int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			if e.PID == 2 {
				busSlices++
			}
			// Both tracks live on the CPU-cycle timeline: nothing may end
			// past the run (bus events are converted from bus cycles).
			if e.Ts+e.Dur > cycles+uint64(m.Cfg.Ratio) {
				t.Errorf("slice ends at %d, run was %d CPU cycles", e.Ts+e.Dur, cycles)
			}
		case "C":
			counters++
		}
	}
	if busSlices == 0 {
		t.Error("no bus slices in trace")
	}
	if counters == 0 {
		t.Error("metrics samples did not land as counter tracks")
	}
}

// TestUnattachedMachineHasNoObservers documents the nil-cost-off design:
// a plain machine carries no observers or periodic hooks.
func TestUnattachedMachineHasNoObservers(t *testing.T) {
	m := runStoreLoop(t)
	if m.metrics || len(m.periodicHooks) != 0 || m.perfetto != nil {
		t.Error("fresh machine has observability state attached")
	}
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	m.FlushObs() // must be a no-op, not a panic
}

// TestAttachPeriodic verifies the generic periodic hooks: one firing per
// interval per hook while running, plus exactly one more each from the
// final flush, and independent cadences for coexisting hooks (the
// metrics stream alongside the flight recorder).
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
