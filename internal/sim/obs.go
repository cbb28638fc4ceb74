// Machine-level observability wiring: this file connects the leaf obs
// package to the live machine, converting CPU retire events and bus
// transactions into obs events on a shared CPU-cycle timeline. All hooks
// are opt-in; an unattached machine pays only one nil check per tick.
package sim

import (
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
