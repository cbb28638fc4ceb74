// Machine-level journey-tracing and counter-registry wiring: connects the
// leaf obs packages (internal/obs/journey, internal/obs/counters) to the
// live machine. Like the fault and periodic hooks, everything here is
// opt-in — an unattached machine pays nothing, and attaching changes no
// simulated timing.
package sim

import (
	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/journey"
)

// AttachCounters creates (once) the unified counter registry and has
// every layer — CPU, bus, caches, uncached buffer, CSB, and the NIC —
// register its named counters as read closures. After attaching, Stats()
// carries a registry snapshot and the report renders it; existing stats
// fields are untouched either way.
func (m *Machine) AttachCounters() *counters.Registry {
	if m.counters != nil {
		return m.counters
	}
	r := counters.NewRegistry()
	m.counters = r
	m.CPU.RegisterCounters("cpu", r)
	m.Bus.RegisterCounters("bus", r)
	m.Hier.RegisterCounters("cache", r)
	m.UB.RegisterCounters("ub", r)
	m.CSB.RegisterCounters("csb", r)
	r.Counter("sim/effort/full_ticks", func() uint64 { return m.Effort().FullTicks })
	r.Counter("sim/effort/coasted_cycles", func() uint64 { return m.Effort().CoastedCycles })
	r.Counter("sim/effort/asleep_cycles", func() uint64 { return m.Effort().AsleepCycles })
	r.Counter("sim/effort/steps", func() uint64 { return m.Effort().Steps })
	if m.nic != nil {
		m.nic.RegisterCounters(nicCounterPrefix, r)
	}
	return r
}

// Counters returns the attached registry, or nil.
func (m *Machine) Counters() *counters.Registry { return m.counters }

// nicCounterPrefix names the NIC's counters in the registry; recordings,
// csbrec top and the SLO specs read them under it.
const nicCounterPrefix = "dev0"

// AttachJourneys creates (once) the store-journey tracer on the
// machine's CPU-cycle clock and wires it into the uncached buffer, the
// CSB, and the NIC. The tracer's latency histograms and run counters
// land in the unified registry (attached implicitly), so they appear in
// the report, the JSON stats, and the watchdog's diagnostic dump. Attach
// before running.
func (m *Machine) AttachJourneys() (*journey.Tracer, error) {
	if m.journeys != nil {
		return m.journeys, nil
	}
	tr, err := journey.NewTracer(m.AttachCounters(), func() uint64 { return m.cycle })
	if err != nil {
		return nil, err
	}
	m.journeys = tr
	m.UB.AttachTracer(tr)
	m.CSB.AttachTracer(tr)
	if m.nic != nil {
		m.nic.AttachTracer(tr)
	}
	return tr, nil
}

// Journeys returns the attached tracer, or nil.
func (m *Machine) Journeys() *journey.Tracer { return m.journeys }

// flushObs fires every periodic hook once more at the current cycle, so
// the final partial recording window is emitted on
// any run exit, the abort paths (watchdog trip, typed device error)
// included. A second flush at the same cycle fires nothing.
//
//csb:barrier flushes windows shared consumers read; never inside a window
func (m *Machine) flushObs() {
	if m.flushedAt == m.cycle+1 {
		return
	}
	m.flushedAt = m.cycle + 1
	for i := range m.periodicHooks {
		m.periodicHooks[i].fn(m.cycle)
	}
}

// FlushObs drains buffered observability state: one last firing of every
// periodic hook, which emits the final partial recording window (a hook
// whose window is empty emits nothing). Machine.Run's abort paths call
// it internally; cluster.Run calls it on its own error paths so a wedged
// node still yields a partial dump.
//
//csb:barrier flushes windows shared consumers read; never inside a window
func (m *Machine) FlushObs() { m.flushObs() }
