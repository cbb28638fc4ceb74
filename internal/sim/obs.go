// Machine-level observability wiring: this file keeps the machine's one
// ring of retired instructions and its ring of bus transactions, and
// converts them into obs events on a shared CPU-cycle timeline when a
// consumer reads them. All hooks are opt-in; an unattached machine pays
// only one nil check per tick.
package sim

import (
	"csbsim/internal/bus"
	"csbsim/internal/cpu"
	"csbsim/internal/obs"
)

// pipelineTail is how many retired instructions and bus transactions the
// pipeline tail keeps: the last ones of the run, written into a
// recording as its "i" and "b" frames.
const pipelineTail = 4096

// retireRing attaches the machine's retired-instruction ring on first
// use and grows it to hold at least n events, so one ring serves every
// consumer at the size of the largest. Call before running.
func (m *Machine) retireRing(n int) {
	switch {
	case m.retired == nil:
		m.retired = newRing[cpu.RetireEvent](n)
		m.CPU.AttachRetire(func(ev cpu.RetireEvent) { m.retired.push(ev) })
	case m.retired.capacity() < n:
		grown := newRing[cpu.RetireEvent](n)
		for _, ev := range m.retired.last(m.retired.size()) {
			grown.push(ev)
		}
		m.retired = grown
	}
}

// AttachPipeline keeps the last pipelineTail retired instructions and
// bus transactions, and returns the function that reads them, oldest
// first: the argument of rec.Recorder.AddPipeline. Bus cycles are
// multiplied by the clock ratio so both share the CPU-cycle timeline.
// Retire events are converted (and disassembled) only when read, so the
// per-retire cost is one ring push. Attach before running.
func (m *Machine) AttachPipeline() func() ([]obs.InstEvent, []obs.BusEvent) {
	m.retireRing(pipelineTail)
	if m.busTail == nil {
		m.busTail = newRing[obs.BusEvent](pipelineTail)
		ratio := uint64(m.Cfg.Ratio)
		m.Bus.AttachObserver(func(t *bus.Txn) {
			m.busTail.push(obs.BusEvent{
				Start: t.Start * ratio,
				End:   (t.End + 1) * ratio,
				Addr:  t.Addr,
				Size:  t.Size,
				Write: t.Write,
				IO:    t.IO,
			})
		})
	}
	return func() ([]obs.InstEvent, []obs.BusEvent) {
		return instEvents(m.retired.last(pipelineTail)), m.busTail.last(pipelineTail)
	}
}

// instEvents converts retire events to the obs event type, oldest first
// as given — the input of obs.FormatPipeline for the watchdog dump, and
// of the recording's pipeline tail.
func instEvents(evs []cpu.RetireEvent) []obs.InstEvent {
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
	e := obs.InstEvent{
		Seq:      ev.Seq,
		PC:       ev.PC,
		Disasm:   cache.disasm(ev),
		Fetch:    ev.FetchCycle,
		Dispatch: ev.DispatchCycle,
		Issue:    ev.IssueCycle,
		Complete: ev.CompleteCycle,
		Retire:   ev.Cycle,
		IsMem:    ev.IsMem,
	}
	if ev.IsMem {
		e.Addr = ev.Addr
	}
	return e
}
