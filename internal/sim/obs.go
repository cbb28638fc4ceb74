// Machine-level observability wiring: this file connects the leaf obs
// package to the live machine — converting CPU retire events and bus
// transactions into obs events on a shared CPU-cycle timeline, and
// turning flight-recorder windows into the periodic metrics stream. All
// hooks are opt-in; an unattached machine pays only one nil check per
// tick.
package sim

import (
	"fmt"
	"sort"

	"csbsim/internal/bus"
	"csbsim/internal/cpu"
	"csbsim/internal/obs"
	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/rec"
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

// InstEvents converts retire events to the obs event type, oldest first
// as given — the input of obs.FormatPipeline for the watchdog dump and
// the csbsim -pipeview diagram.
func InstEvents(evs []cpu.RetireEvent) []obs.InstEvent {
	cache := make(disasmCache)
	out := make([]obs.InstEvent, len(evs))
	for i, ev := range evs {
		out[i] = instEvent(ev, cache)
	}
	return out
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

// metricsView turns each window of a ring-only flight recorder into one
// metrics sample. The recorder reads a private registry of the CPU, bus
// and cache counters; the occupancies are gauges, not registry series
// (a window stores v-prev as a uint64, so a falling gauge would
// underflow), and are read from the layers when the sample is taken.
type metricsView struct {
	m *Machine
	r *rec.Recorder
	w *obs.MetricsWriter
	// Column of each sampled counter in the recorder's sorted tables.
	busCycles, busBusy, busBytes, retired, l1dMisses, uncStores, csbStores int
}

// AttachMetrics writes one obs.Sample to w every `every` CPU cycles:
// counter deltas over the window plus instantaneous occupancies, the
// first window counting from the attach cycle. If a Perfetto exporter is
// attached, samples also land in the trace as counter tracks. The
// sampler is an AttachPeriodic hook, so FlushObs emits the final partial
// window. Stats().Counters stays nil unless AttachCounters is called.
func (m *Machine) AttachMetrics(w *obs.MetricsWriter, every uint64) error {
	if every == 0 {
		return fmt.Errorf("sim: metrics sample interval must be positive")
	}
	if m.metrics {
		return fmt.Errorf("sim: metrics sampler already attached")
	}
	reg := counters.NewRegistry()
	m.CPU.RegisterCounters("cpu", reg)
	m.Bus.RegisterCounters("bus", reg)
	m.Hier.RegisterCounters("cache", reg)
	r, err := rec.New(rec.Config{Every: every, Ring: 1})
	if err != nil {
		return err
	}
	if err := r.AddSource("m", reg); err != nil {
		return err
	}
	r.Start(m.cycle)
	names := r.CounterNames()
	col := func(name string) int { return sort.SearchStrings(names, "m/"+name) }
	v := &metricsView{m: m, r: r, w: w,
		busCycles: col("bus/cycles"), busBusy: col("bus/busy_cycles"), busBytes: col("bus/bytes"),
		retired: col("cpu/retired"), l1dMisses: col("cache/l1d/misses"),
		uncStores: col("cpu/uncached_stores"), csbStores: col("cpu/csb_stores")}
	if err := m.AttachPeriodic(every, v.sample); err != nil {
		return err
	}
	m.metrics = true
	return nil
}

// sample rolls the recorder's window ending at cycle and emits it; a
// flush at the last sample's cycle rolls nothing and emits nothing.
func (v *metricsView) sample(cycle uint64) {
	n := v.r.Windows()
	v.r.Roll(cycle)
	if v.r.Windows() == n {
		return
	}
	win := v.r.Recent()[0]
	d := win.CtrDelta
	m := v.m
	s := obs.Sample{
		Cycle:          cycle,
		BusCycle:       win.CtrEnd[v.busCycles],
		Retired:        d[v.retired],
		IPC:            float64(d[v.retired]) / float64(win.C1-win.C0),
		BusBytes:       d[v.busBytes],
		L1DMisses:      d[v.l1dMisses],
		UncachedStores: d[v.uncStores],
		CSBStores:      d[v.csbStores],
		CSBOccupancy:   m.CSB.Occupancy(),
		CSBPending:     m.CSB.PendingLines(),
		UBDepth:        m.UB.Len(),
		WriteBufDepth:  m.Hier.WriteBufDepth(),
	}
	if busWindow := d[v.busCycles]; busWindow > 0 {
		s.BusBusyPct = 100 * float64(d[v.busBusy]) / float64(busWindow)
	}
	if v.w != nil {
		v.w.Write(s)
	}
	if m.perfetto != nil {
		m.perfetto.AddCounters(s)
	}
}
