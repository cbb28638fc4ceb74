// Machine-level observability wiring: this file connects the leaf obs
// package to the live machine — converting CPU retire events and bus
// transactions into obs events on a shared CPU-cycle timeline, and
// driving the periodic metrics sampler from Machine.Tick. All hooks are
// opt-in; an unattached machine pays only one nil check per tick.
package sim

import (
	"fmt"

	"csbsim/internal/bus"
	"csbsim/internal/cpu"
	"csbsim/internal/obs"
)

// AttachPerfetto wires a Perfetto exporter to the machine: every retired
// instruction becomes a lifecycle slice and every completed bus
// transaction a bus-track slice. Bus cycles are multiplied by the clock
// ratio so both tracks share the CPU-cycle timeline. Attach before
// running; call p.WriteTo afterwards to emit the trace.
func (m *Machine) AttachPerfetto(p *obs.Perfetto) {
	ratio := uint64(m.Cfg.Ratio)
	cache := make(disasmCache)
	m.CPU.AttachRetire(func(ev cpu.RetireEvent) {
		p.AddInst(instEvent(ev, cache))
	})
	m.Bus.AttachObserver(func(t *bus.Txn) {
		p.AddBus(obs.BusEvent{
			Start: t.Start * ratio,
			End:   (t.End + 1) * ratio,
			Addr:  t.Addr,
			Size:  t.Size,
			Write: t.Write,
			IO:    t.IO,
		})
	})
	m.perfetto = p
}

// AttachInstEvents registers fn on every retired instruction, already
// converted to the obs event type (for custom exporters and the text
// pipeline view).
func (m *Machine) AttachInstEvents(fn func(obs.InstEvent)) {
	cache := make(disasmCache)
	m.CPU.AttachRetire(func(ev cpu.RetireEvent) {
		fn(instEvent(ev, cache))
	})
}

// disasmCache memoizes disassembly per PC — rendering an instruction is
// ~10x the cost of recording its event, and loops retire the same static
// instruction many times. (The simulator has no self-modifying code, so
// PC → text is stable.)
type disasmCache map[uint64]string

func (d disasmCache) disasm(ev cpu.RetireEvent) string {
	if s, ok := d[ev.PC]; ok {
		return s
	}
	s := ev.Inst.String()
	d[ev.PC] = s
	return s
}

func instEvent(ev cpu.RetireEvent, cache disasmCache) obs.InstEvent {
	return obs.InstEvent{
		Seq:      ev.Seq,
		PC:       ev.PC,
		Disasm:   cache.disasm(ev),
		Fetch:    ev.FetchCycle,
		Dispatch: ev.DispatchCycle,
		Issue:    ev.IssueCycle,
		Complete: ev.CompleteCycle,
		Retire:   ev.Cycle,
		IsMem:    ev.IsMem,
		Addr:     ev.Addr,
	}
}

// metricsSampler holds the sampler cadence, sink, and the previous
// snapshot the deltas are computed against.
type metricsSampler struct {
	every uint64
	// countdown ticks down to the next sample (cheaper than a modulo in
	// Machine.Tick; samples land every `every` cycles after attach).
	countdown uint64
	w         *obs.MetricsWriter

	prevCycle     uint64
	prevBusCycles uint64
	prevBusBusy   uint64
	prevBusBytes  uint64
	prevRetired   uint64
	prevL1DMiss   uint64
	prevUncStores uint64
	prevCSBStores uint64
}

// AttachMetrics installs a periodic sampler that writes one obs.Sample to
// w every `every` CPU cycles (delta counters over the window plus
// instantaneous occupancies). If a Perfetto exporter is attached, samples
// also land in the trace as counter tracks. Call FlushMetrics after the
// run to emit the final partial window.
func (m *Machine) AttachMetrics(w *obs.MetricsWriter, every uint64) error {
	if every == 0 {
		return fmt.Errorf("sim: metrics sample interval must be positive")
	}
	if m.sampler != nil {
		return fmt.Errorf("sim: metrics sampler already attached")
	}
	m.endCoast()
	m.sampler = &metricsSampler{every: every, countdown: every, w: w,
		prevCycle: m.cycle}
	return nil
}

// FlushMetrics emits a final sample covering the cycles since the last
// periodic one. It is a no-op without an attached sampler or when the
// last window is empty.
func (m *Machine) FlushMetrics() {
	if m.sampler == nil || m.cycle == m.sampler.prevCycle {
		return
	}
	m.sampleMetrics()
}

func (m *Machine) sampleMetrics() {
	s := m.sampler
	cs := m.CPU.Stats()
	hs := m.Hier.Stats()
	busBusy, busBytes := m.Bus.Activity()
	busCycle := m.Bus.Cycle()

	sample := obs.Sample{
		Cycle:          m.cycle,
		BusCycle:       busCycle,
		Retired:        cs.Retired - s.prevRetired,
		BusBytes:       busBytes - s.prevBusBytes,
		L1DMisses:      hs.L1D.Misses - s.prevL1DMiss,
		UncachedStores: cs.UncachedStores - s.prevUncStores,
		CSBStores:      cs.CSBStores - s.prevCSBStores,
		CSBOccupancy:   m.CSB.Occupancy(),
		CSBPending:     m.CSB.PendingLines(),
		UBDepth:        m.UB.Len(),
		WriteBufDepth:  m.Hier.WriteBufDepth(),
	}
	if window := m.cycle - s.prevCycle; window > 0 {
		sample.IPC = float64(sample.Retired) / float64(window)
	}
	if busWindow := busCycle - s.prevBusCycles; busWindow > 0 {
		sample.BusBusyPct = 100 * float64(busBusy-s.prevBusBusy) / float64(busWindow)
	}

	s.prevCycle = m.cycle
	s.prevBusCycles = busCycle
	s.prevBusBusy = busBusy
	s.prevBusBytes = busBytes
	s.prevRetired = cs.Retired
	s.prevL1DMiss = hs.L1D.Misses
	s.prevUncStores = cs.UncachedStores
	s.prevCSBStores = cs.CSBStores

	if s.w != nil {
		s.w.Write(sample)
	}
	if m.perfetto != nil {
		m.perfetto.AddCounters(sample)
	}
}
