package sim

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csbsim/internal/fault"
	"csbsim/internal/mem"
)

// observeRun runs one §4.3.1 example stream to HALT with a flight
// recorder over the machine's registry rolling every 1000 cycles from
// cycle 0, flushes the final window, and returns the recording: the
// bytes `csbsim -record FILE -record-every 1000` writes before its
// footer.
func observeRun(t *testing.T, file string, kind mem.Kind) string {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.MapRange(0x4000_0000, 1<<16, kind)
	if _, err := m.LoadSource(file, exampleSource(t, file)); err != nil {
		t.Fatal(err)
	}
	buf := attachRecorder(t, m, m.AttachCounters(), 1000)
	if err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	m.FlushObs()
	return buf.String()
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
// byte for byte: the flight recording of both §4.3.1 streams (every
// counter's change and every gauge's value per 1000-cycle window) and
// the watchdog dump's retired-instruction ring after it has wrapped.
// Refresh with: go test ./internal/sim -run TestObserveGolden -update
func TestObserveGolden(t *testing.T) {
	var b strings.Builder
	section := func(title, body string) { fmt.Fprintf(&b, "== %s ==\n%s", title, body) }
	section("recording uncached_stores.s every 1000",
		observeRun(t, "uncached_stores.s", mem.KindUncached))
	section("recording csb_stores.s every 1000",
		observeRun(t, "csb_stores.s", mem.KindCombining))
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
