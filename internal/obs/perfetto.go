package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"csbsim/internal/obs/journey"
)

// Perfetto collects instruction lifecycles, bus transactions and store
// journeys and renders them as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. Timestamps are CPU
// cycles written as microseconds — absolute time units are meaningless
// for a cycle simulator, only the relative scale matters.
//
// Instructions render as slices on a set of round-robin lanes (threads)
// under the "cpu" process, one slice per instruction spanning fetch to
// retire, with the per-stage stamps in the slice args. Bus transactions
// render under the "bus" process. Counter tracks (IPC, bus busy, buffer
// depths) come from a flight recording: `csbrec perfetto`.
//
// Recording only appends raw events to slices; all JSON assembly is
// deferred to WriteTo, keeping the per-instruction recording cost low
// enough to instrument long runs.
type Perfetto struct {
	// Lanes is the number of instruction rows; in-flight instructions
	// rotate across them so overlapping lifetimes stay readable. It
	// defaults to 32 (half the ROB) and must be set before WriteTo.
	Lanes int

	insts    []InstEvent
	bus      []BusEvent
	journeys []journey.Journey
	ratio    int // CPU-to-bus clock ratio (flow binding to bus slices)
}

// traceEvent is one Chrome trace-event JSON object (the subset we emit).
// Cat/FlowID/BP are used only by flow events ("s"/"t"/"f" arrows, which
// must share a name, category and id across their steps).
type traceEvent struct {
	Name   string         `json:"name"`
	Cat    string         `json:"cat,omitempty"`
	Ph     string         `json:"ph"`
	Ts     uint64         `json:"ts"`
	Dur    uint64         `json:"dur,omitempty"`
	PID    int            `json:"pid"`
	TID    int            `json:"tid"`
	FlowID int            `json:"id,omitempty"`
	BP     string         `json:"bp,omitempty"`
	Args   map[string]any `json:"args,omitempty"`
}

const (
	perfettoPIDCPU = 1
	perfettoPIDBus = 2
)

// NewPerfetto creates an exporter with the default lane count.
func NewPerfetto() *Perfetto { return &Perfetto{Lanes: 32} }

// Count returns the number of instruction slices recorded.
func (p *Perfetto) Count() uint64 { return uint64(len(p.insts)) }

// AddInst records one retired instruction.
func (p *Perfetto) AddInst(e InstEvent) { p.insts = append(p.insts, e) }

// AddBus records one completed bus transaction (CPU-cycle timestamps).
func (p *Perfetto) AddBus(e BusEvent) { p.bus = append(p.bus, e) }

func (p *Perfetto) instEvent(e InstEvent) traceEvent {
	start, end := e.Span()
	dur := end - start
	if dur == 0 {
		dur = 1 // zero-width slices vanish in the UI
	}
	args := map[string]any{
		"seq": e.Seq,
		"pc":  fmt.Sprintf("%#x", e.PC),
	}
	for _, st := range []struct {
		name  string
		cycle uint64
	}{
		{"fetch", e.Fetch}, {"dispatch", e.Dispatch}, {"issue", e.Issue},
		{"complete", e.Complete}, {"retire", e.Retire},
	} {
		if st.cycle != 0 {
			args[st.name] = st.cycle
		}
	}
	if e.IsMem {
		args["va"] = fmt.Sprintf("%#x", e.Addr)
	}
	lanes := p.Lanes
	if lanes <= 0 {
		lanes = 1
	}
	return traceEvent{
		Name: e.Disasm, Ph: "X", Ts: start, Dur: dur,
		PID: perfettoPIDCPU, TID: 1 + int(e.Seq%uint64(lanes)),
		Args: args,
	}
}

func busEvent(e BusEvent) traceEvent {
	dir := "RD"
	if e.Write {
		dir = "WR"
	}
	kind := "mem"
	if e.IO {
		kind = "io"
	}
	dur := e.End - e.Start
	if dur == 0 {
		dur = 1
	}
	return traceEvent{
		Name: fmt.Sprintf("%s %dB @%#x", dir, e.Size, e.Addr),
		Ph:   "X", Ts: e.Start, Dur: dur,
		PID: perfettoPIDBus, TID: 1,
		Args: map[string]any{"kind": kind, "size": e.Size},
	}
}

// WriteTo renders the trace as a single JSON document.
func (p *Perfetto) WriteTo(w io.Writer) (int64, error) {
	events := make([]traceEvent, 0, 2+len(p.insts)+len(p.bus))
	events = append(events,
		traceEvent{Name: "process_name", Ph: "M", PID: perfettoPIDCPU,
			Args: map[string]any{"name": "cpu pipeline"}},
		traceEvent{Name: "process_name", Ph: "M", PID: perfettoPIDBus,
			Args: map[string]any{"name": "system bus"}})
	for _, e := range p.insts {
		events = append(events, p.instEvent(e))
	}
	for _, e := range p.bus {
		events = append(events, busEvent(e))
	}
	events = p.journeyEvents(events)
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{
		TraceEvents:     events,
		DisplayTimeUnit: "ns",
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	return int64(n), err
}
