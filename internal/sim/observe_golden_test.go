package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csbsim/internal/fault"
	"csbsim/internal/mem"
	"csbsim/internal/obs"
)

// observeRun runs one §4.3.1 example stream to HALT with the metrics
// stream attached before the run at cadence 1000 (plus a Perfetto
// exporter when p is non-nil), flushes the final window, and returns
// the stream.
func observeRun(t *testing.T, file string, kind mem.Kind, format obs.MetricsFormat, p *obs.Perfetto) string {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.MapRange(0x4000_0000, 1<<16, kind)
	if _, err := m.LoadSource(file, exampleSource(t, file)); err != nil {
		t.Fatal(err)
	}
	if p != nil {
		m.AttachPerfetto(p)
	}
	var buf bytes.Buffer
	if err := m.AttachMetrics(obs.NewMetricsWriter(&buf, format), 1000); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	m.FlushObs()
	return buf.String()
}

// perfettoCounters returns the trace's "ph":"C" events, one raw JSON
// object per line, in emission order.
func perfettoCounters(t *testing.T, p *obs.Perfetto) string {
	t.Helper()
	var out bytes.Buffer
	if _, err := p.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, raw := range doc.TraceEvents {
		var ev struct {
			Ph string `json:"ph"`
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Ph == "C" {
			b.Write(raw)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// wedgeAfterSpin retires a 25-iteration loop (75 instructions, more than
// twice what the watchdog keeps, ending mid-ring) before its uncached
// store wedges on a bus that NACKs every transaction.
const wedgeAfterSpin = `
	mov 25, %g2
spin:
	add %g1, 1, %g1
	subcc %g2, 1, %g2
	bnz spin
	set 0x48000000, %o0
	stx %g1, [%o0]
	membar
	halt
`

// watchdogRetiredSection returns the "last N retired instructions"
// section of the dump a watchdog trip produces on wedgeAfterSpin.
func watchdogRetiredSection(t *testing.T) string {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.MapRange(0x4800_0000, 0x1000, mem.KindUncached)
	if _, err := m.AttachFaults(fault.Config{Seed: 1, BusNack: fault.RateScale}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetWatchdog(5000); err != nil {
		t.Fatal(err)
	}
	p, err := m.LoadSource("wedge.s", wedgeAfterSpin)
	if err != nil {
		t.Fatal(err)
	}
	m.WarmProgram(p)
	var wd *WatchdogError
	if err := m.Run(1_000_000); !errors.As(err, &wd) {
		t.Fatalf("run ended with %v, want *WatchdogError", err)
	}
	i := strings.Index(wd.Dump, "--- last ")
	if i < 0 {
		t.Fatalf("dump has no retired-instruction section:\n%s", wd.Dump)
	}
	return wd.Dump[i:]
}

// TestObserveGolden pins the machine's periodic and post-mortem views
// byte for byte: the metrics stream (JSONL for both §4.3.1 streams, CSV
// for one), the Perfetto counter tracks the samples become, and the
// watchdog dump's retired-instruction ring after it has wrapped.
// Refresh with: go test ./internal/sim -run TestObserveGolden -update
func TestObserveGolden(t *testing.T) {
	var b strings.Builder
	section := func(title, body string) { fmt.Fprintf(&b, "== %s ==\n%s", title, body) }
	section("metrics uncached_stores.s jsonl every 1000",
		observeRun(t, "uncached_stores.s", mem.KindUncached, obs.FormatJSONL, nil))
	p := obs.NewPerfetto()
	section("metrics csb_stores.s jsonl every 1000",
		observeRun(t, "csb_stores.s", mem.KindCombining, obs.FormatJSONL, p))
	section("perfetto counter events csb_stores.s", perfettoCounters(t, p))
	section("metrics csb_stores.s csv every 1000",
		observeRun(t, "csb_stores.s", mem.KindCombining, obs.FormatCSV, nil))
	section("watchdog dump, last retired instructions", watchdogRetiredSection(t))
	got := b.String()

	golden := filepath.Join("testdata", "observe.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("observability output drifted from %s (refresh with -update if intended)\n--- got ---\n%s", golden, got)
	}
}
