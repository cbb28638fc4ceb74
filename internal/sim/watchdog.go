// The machine watchdog: detects retire-progress livelock and deadlock —
// no instruction committed for a whole window of cycles — and aborts the
// run with a diagnostic dump built from the observability layer, instead
// of letting a wedged guest (or a simulator bug) hang the process. The
// dump answers the question a hang never does: what is the head of the
// ROB waiting on, what does the CPI stack blame, and what is sitting in
// the uncached buffer, the CSB and on the bus.
package sim

import (
	"fmt"
	"strings"

	"csbsim/internal/obs"
)

// wdRingSize is how many recently retired instructions the watchdog keeps
// for the dump's pipeline view.
const wdRingSize = 32

// WatchdogError reports a run aborted by the watchdog. The Dump field
// (also included in Error()) is the full diagnostic state at the moment
// the watchdog tripped.
type WatchdogError struct {
	Window  uint64 // cycles without retire progress that tripped it
	Cycle   uint64 // machine cycle at the trip
	PC      uint64 // committed PC at the trip
	Retired uint64 // instructions retired before the machine wedged
	Dump    string
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("sim: watchdog: no instruction retired in %d cycles (cycle %d, pc %#x, %d retired)\n%s",
		e.Window, e.Cycle, e.PC, e.Retired, e.Dump)
}

// watchdogState tracks retire progress between checks. The dump reads
// the machine's retired-instruction ring, whose Push is allocation-free,
// so an armed watchdog does not disturb the zero-alloc tick loop.
type watchdogState struct {
	window      uint64
	countdown   uint64
	lastRetired uint64
}

// SetWatchdog arms the retire-progress watchdog: if no instruction
// retires for `window` consecutive cycles while the CPU is not halted,
// Run aborts with a *WatchdogError carrying a diagnostic dump. Arm it
// before running; it cannot be re-armed.
func (m *Machine) SetWatchdog(window uint64) error {
	if window == 0 {
		return fmt.Errorf("sim: watchdog window must be positive")
	}
	if m.wd != nil {
		return fmt.Errorf("sim: watchdog already armed")
	}
	m.wd = &watchdogState{window: window, countdown: window, lastRetired: m.CPU.Retired()}
	m.retireRing(wdRingSize)
	return nil
}

// watchdogTrip builds the typed error for a tripped watchdog.
func (m *Machine) watchdogTrip() error {
	return &WatchdogError{
		Window:  m.wd.window,
		Cycle:   m.cycle,
		PC:      m.CPU.State().PC,
		Retired: m.CPU.Retired(),
		Dump:    m.DiagnosticDump(),
	}
}

// DiagnosticDump renders the full machine state for post-mortem
// diagnosis: the stats report, the CPI stall-attribution stack, the
// pipeline (ROB head state), the in-flight uncached-buffer/CSB/bus
// state, NIC state and errors, and — when the machine keeps a
// retired-instruction ring (an armed watchdog, a pipeline tail) — a
// pipeline view of the last wdRingSize retired instructions. Not a hot
// path.
func (m *Machine) DiagnosticDump() string {
	var b strings.Builder
	s := m.Stats()
	fmt.Fprintf(&b, "=== machine state at cycle %d (pc %#x, halted=%v) ===\n",
		m.cycle, m.CPU.State().PC, m.CPU.Halted())
	b.WriteString(s.Report())
	b.WriteString("--- CPI stall stack ---\n")
	b.WriteString(s.ReportCPI())
	b.WriteString("--- pipeline ---\n")
	b.WriteString(m.CPU.PipelineDump())
	fmt.Fprintf(&b, "--- uncached buffer ---\nentries %d, send-stage chunks %d, in-flight txns %d, empty=%v\n",
		m.UB.Len(), m.UB.SendingChunks(), m.UB.InFlight(), m.UB.Empty())
	fmt.Fprintf(&b, "--- csb ---\noccupancy %d/%d bytes, hit count %d, pending lines %d, busy=%v\n",
		m.CSB.Occupancy(), m.Cfg.CSB.LineSize, m.CSB.HitCount(), m.CSB.PendingLines(), m.CSB.Busy())
	fmt.Fprintf(&b, "--- bus ---\n%s\n", m.Bus.DebugString())
	if m.nic != nil {
		fmt.Fprintf(&b, "--- devices ---\n%s idle=%v", m.nic, m.nic.Idle())
		if err := m.nic.Err(); err != nil {
			fmt.Fprintf(&b, " err=%v", err)
		}
		b.WriteByte('\n')
	}
	if last := m.retired.last(wdRingSize); len(last) > 0 {
		fmt.Fprintf(&b, "--- last %d retired instructions ---\n", len(last))
		b.WriteString(obs.FormatPipeline(instEvents(last)))
	}
	return b.String()
}
