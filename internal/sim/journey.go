// Machine-level journey-tracing and counter-registry wiring: connects the
// leaf obs packages (internal/obs/journey, internal/obs/counters) to the
// live machine. Like the fault and periodic hooks, everything here is
// opt-in — an unattached machine pays nothing, and attaching changes no
// simulated timing.
package sim

import (
	"fmt"

	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/journey"
)

// deviceJourneySink matches devices (structurally, so this package keeps
// not importing internal/device) that accept the descriptor-journey
// hooks — the NIC's SetJourneyHooks.
type deviceJourneySink interface {
	SetJourneyHooks(descQueued func(offset uint64, length int, viaDMA bool) uint64,
		txStarted, txDone func(id uint64))
}

// deviceCounterSource matches devices that register named counters.
type deviceCounterSource interface {
	RegisterCounters(prefix string, r *counters.Registry)
}

// AttachCounters creates (once) the unified counter registry and has
// every layer — CPU, bus, caches, uncached buffer, CSB, and each
// registered device — register its named counters as read closures.
// After attaching, Stats() carries a registry snapshot and the report
// renders it; existing stats fields are untouched either way.
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
	for _, d := range m.devices {
		m.registerDeviceCounters(d)
	}
	return r
}

// Counters returns the attached registry, or nil.
func (m *Machine) Counters() *counters.Registry { return m.counters }

func (m *Machine) registerDeviceCounters(d Device) {
	if cs, ok := d.(deviceCounterSource); ok {
		cs.RegisterCounters(fmt.Sprintf("dev%d", m.devCounters), m.counters)
		m.devCounters++
	}
}

// AttachJourneys creates (once) the store-journey tracer on the
// machine's CPU-cycle clock and wires it into the uncached buffer, the
// CSB, and every journey-capable device. The tracer's latency histograms
// and run counters land in the unified registry (attached implicitly),
// so they appear in the report, the JSON stats, and the watchdog's
// diagnostic dump. Attach before running.
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
	for _, d := range m.devices {
		wireDeviceJourneys(d, tr)
	}
	return tr, nil
}

// Journeys returns the attached tracer, or nil.
func (m *Machine) Journeys() *journey.Tracer { return m.journeys }

func wireDeviceJourneys(d Device, tr *journey.Tracer) {
	if js, ok := d.(deviceJourneySink); ok {
		js.SetJourneyHooks(tr.NICDescQueued, tr.NICTxStarted, tr.NICTxDone)
	}
}

// ExportJourneys feeds the retained journeys into the attached Perfetto
// exporter as memory-system slices with flow arrows back to the pipeline
// and bus tracks. Call after the run, before writing the trace; a no-op
// unless both a Perfetto exporter and a journey tracer are attached.
func (m *Machine) ExportJourneys() {
	if m.perfetto != nil && m.journeys != nil {
		m.perfetto.AddJourneys(m.journeys.Retained(), m.Cfg.Ratio)
	}
}

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
