// Package rec is the flight recorder: deterministic windowed time-series
// rollups over the unified counter registries, persisted as a replayable
// recording, with a declarative SLO engine evaluated per window.
//
// Every W sim-cycles (driven by Machine.AttachPeriodic on a single node,
// or by the cluster at its single-threaded barrier phase) the recorder
// snapshots every attached registry and computes *window deltas*: how
// much each counter moved, each gauge's value at the window's end, and —
// via raw histogram bucket states (counters.HistState) — genuine
// per-window latency quantiles rather than cumulative ones. Each window
// is evaluated against the SLO rules (the live consumers: breach events,
// active-alert export) and, if a writer is attached, written as one
// length-prefixed JSON frame in the recording file. Frames are written
// whole, one Write call each, so an aborted run leaves a valid prefix:
// the reader tolerates a truncated tail, and the cluster/machine abort
// paths flush a final partial window plus a footer (mirroring flushObs).
//
// Nothing here reads the wall clock, iterates maps, or depends on the
// execution engine: all inputs are sim-cycle stamps and registry values
// read at barriers, so a recording of a parallel cluster run is
// byte-identical to the sequential reference — the property that makes
// `csbrec diff` trustworthy for regression checks and result caching.
//
// Recording format: a sequence of frames, each "<len>\n<json>\n" where
// len is the decimal byte length of the JSON document. Frame kinds
// ("k"): "h" header (version, cadence, source/series tables), "w" window
// (counter [end,delta] pairs and histogram [n,sum,min,p50,p95,p99,max]
// rows aligned with the header's series lists), "e" cycle-stamped event
// (SLO breach/recover, watchdog fire, node-down transition, link outage
// window), "j" journey (one store or descriptor journey of an attached
// journey.Tracer: "set" is "slowest" or "recent", then id, kind, addr,
// size, the four hop stamps "t" and the coalesced/aborted/done flags;
// written once, at Flush, before the footer), "s" span (one wire
// packet of an attached ctrace.Tracer, with ctrace.Span's fields:
// trace_id, from, to, jid, size, done, dropped and drop_cycle, and the
// six aligned stamps fifo_push … rx_drain; written once, at Flush, after
// the journeys), "i" instruction (one of the last retired instructions
// of an attached pipeline tail, with obs.InstEvent's fields: seq, pc,
// dis, the stage stamps fetch … retire, a stage never reached left out,
// and mem and addr for a memory op; written once, at Flush, after the
// spans, oldest first), "b" bus transaction (one of the tail's last bus
// transactions, with obs.BusEvent's fields in CPU cycles: start, end,
// addr, size, write and io; written after the "i" frames, oldest
// first), "f" footer (totals, and "total": one whole-run
// [n,sum,min,p50,p95,p99,max] row per histogram, aligned with histn; its
// presence marks a clean close). A reader skips a frame of a kind it
// does not know, so a recording with a newer kind still reads to its
// footer.
//
// The header's "ctrn" table lists counters and gauges alike. Its
// optional "gauges" list names the ctrn entries that are gauges; a
// recording without it is all counters. A gauge's row carries the same
// [end,delta] pair, but only end means anything: delta is v-prev in
// uint64 arithmetic and wraps whenever the gauge falls, so every
// consumer (csbrec, csbtop, the SLO aggregations) reads a gauge's end.
package rec

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"csbsim/internal/cluster/ctrace"
	"csbsim/internal/obs"
	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/journey"
)

// FormatVersion is the recording format version written in the header.
const FormatVersion = 1

// Config parameterizes a Recorder.
type Config struct {
	// Every is the rollup cadence in sim cycles: one window per Every
	// cycles. The attacher (Machine.AttachPeriodic, Cluster.AttachRecorder)
	// drives Roll on this cadence.
	Every uint64
}

// DefaultConfig is a 10k-cycle window.
func DefaultConfig() Config { return Config{Every: 10_000} }

// HistWindow is one histogram's statistics over a single window: the
// sample count and sum recorded during the window, and quantiles exact
// at bucket resolution over the window's own samples.
type HistWindow struct {
	N   uint64 `json:"n"`
	Sum uint64 `json:"sum"`
	Min uint64 `json:"min"`
	P50 uint64 `json:"p50"`
	P95 uint64 `json:"p95"`
	P99 uint64 `json:"p99"`
	Max uint64 `json:"max"`
}

// Mean is the window's mean sample value (0 for an empty window).
func (h HistWindow) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// Window is one rollup: every counter's and gauge's end-of-window value
// and delta (meaningless for a gauge), and every histogram's window
// statistics, in the recorder's sorted series order (see
// Recorder.CounterNames/HistNames).
type Window struct {
	Index    uint64
	C0, C1   uint64 // window covers sim cycles (C0, C1]
	CtrEnd   []uint64
	CtrDelta []uint64
	Hist     []HistWindow
}

// Event is one cycle-stamped occurrence merged into the recording's
// event log: SLO breaches and recoveries ("slo_breach"/"slo_recover",
// with Rule and the offending Value), watchdog fires ("watchdog"),
// node-down transitions ("node_down"), and wire-fault link outage
// windows ("link_outage", Value = the window length in cycles).
type Event struct {
	Cycle uint64  `json:"c"`
	Kind  string  `json:"ev"`
	Node  string  `json:"n,omitempty"`
	Rule  string  `json:"r,omitempty"`
	Value float64 `json:"val,omitempty"`
}

// Alert is one currently-breached SLO binding: what ActiveAlerts reports
// at the end of a run and SLO.ActiveAt replays for csbtop.
type Alert struct {
	Rule   string  `json:"rule"`
	Series string  `json:"series"`
	Since  uint64  `json:"since_cycle"`
	Value  float64 `json:"value"`
}

// source is one attached registry.
type source struct {
	name string
	reg  *counters.Registry
}

// Recorder owns the series tables, the window scratch, the event log and
// the recording writer. Attach sources and the SLO before the run;
// Roll/Event/Flush are barrier-phase only (single-threaded, between
// lookahead windows) — the pinned phasesafe contract.
type Recorder struct {
	cfg      Config
	w        io.Writer
	slo      *SLO
	sources  []source
	journeys *journey.Tracer
	spans    *ctrace.Tracer
	pipeline func() ([]obs.InstEvent, []obs.BusEvent)

	sealed     bool
	footerDone bool
	err        error

	// Series tables, sorted by full name ("<source>/<registered name>");
	// ctrGauge marks the ctrNames entries that are gauges.
	ctrNames  []string
	ctrRead   []func() uint64
	ctrGauge  []bool
	histNames []string
	hists     []*counters.Histogram

	// Rollup state: previous end-of-window values/states, reused scratch,
	// and the histogram states at Start the footer's totals start from.
	prevCtr   []uint64
	prevHist  []counters.HistState
	curHist   counters.HistState
	startHist []counters.HistState

	win      Window // the window Roll fills, reused
	windows  uint64
	lastRoll uint64
	started  uint64 // cycle Start sealed the tables

	pending    []Event // events not yet written to the file
	eventCount uint64

	bindings []binding

	jbuf []byte // reused JSON scratch
	fbuf []byte // reused frame scratch (length prefix + JSON)
}

// New creates a Recorder. Every must be positive.
func New(cfg Config) (*Recorder, error) {
	if cfg.Every == 0 {
		return nil, fmt.Errorf("rec: window cadence must be positive")
	}
	return &Recorder{cfg: cfg}, nil
}

// Every returns the rollup cadence in sim cycles.
func (r *Recorder) Every() uint64 { return r.cfg.Every }

// Err returns the first write error, if any (sticky; the recorder keeps
// rolling windows and evaluating the SLO after a write error).
func (r *Recorder) Err() error { return r.err }

// AddSource attaches a named counter registry; every counter and
// histogram it holds at Start time becomes a series named
// "<name>/<registered name>". Must be called before the first Roll.
func (r *Recorder) AddSource(name string, reg *counters.Registry) error {
	if r.sealed {
		return fmt.Errorf("rec: recorder already started")
	}
	if name == "" || reg == nil {
		return fmt.Errorf("rec: empty source name or nil registry")
	}
	for _, s := range r.sources {
		if s.name == name {
			return fmt.Errorf("rec: duplicate source %q", name)
		}
	}
	r.sources = append(r.sources, source{name: name, reg: reg})
	return nil
}

// SetWriter attaches the recording sink; every frame is written whole in
// one Write call. Must be called before the first Roll. Without a
// writer the recorder only evaluates the SLO live.
func (r *Recorder) SetWriter(w io.Writer) error {
	if r.sealed {
		return fmt.Errorf("rec: recorder already started")
	}
	r.w = w
	return nil
}

// SetSLO installs the parsed SLO spec evaluated at every window. Must be
// called before the first Roll.
func (r *Recorder) SetSLO(s *SLO) error {
	if r.sealed {
		return fmt.Errorf("rec: recorder already started")
	}
	r.slo = s
	return nil
}

// AddJourneys attaches a journey tracer: at Flush, before the footer,
// its slowest set and its retained journeys are written as "j" frames.
// A nil tracer writes none. Must be called before the first Roll.
func (r *Recorder) AddJourneys(t *journey.Tracer) error {
	if r.sealed {
		return fmt.Errorf("rec: recorder already started")
	}
	r.journeys = t
	return nil
}

// AddSpans attaches a wire tracer: at Flush, before the footer, its
// retained spans are written as "s" frames. A nil tracer writes none.
// Must be called before the first Roll.
func (r *Recorder) AddSpans(t *ctrace.Tracer) error {
	if r.sealed {
		return fmt.Errorf("rec: recorder already started")
	}
	r.spans = t
	return nil
}

// AddPipeline attaches a pipeline tail: at Flush, after the spans and
// before the footer, the instructions and bus transactions tail returns
// (the last ones of the run, oldest first) are written as "i" and "b"
// frames. Must be called before the first Roll.
func (r *Recorder) AddPipeline(tail func() ([]obs.InstEvent, []obs.BusEvent)) error {
	if r.sealed {
		return fmt.Errorf("rec: recorder already started")
	}
	r.pipeline = tail
	return nil
}

// CounterNames returns the sealed counter- and gauge-series names
// (sorted); nil before Start.
func (r *Recorder) CounterNames() []string { return r.ctrNames }

// HistNames returns the sealed histogram-series names (sorted); nil
// before Start.
func (r *Recorder) HistNames() []string { return r.histNames }

// Windows returns the number of windows rolled so far.
func (r *Recorder) Windows() uint64 { return r.windows }

// EventCount returns the number of events logged so far.
func (r *Recorder) EventCount() uint64 { return r.eventCount }

// Start seals the series tables (collecting and sorting every source's
// counters and histograms), records the baseline the first window's
// deltas are measured from, and writes the header frame. Called
// automatically by the first Roll; call it explicitly at run start when
// sources register counters after attach time. Idempotent.
//
//csb:barrier reads every source registry; only safe between windows
func (r *Recorder) Start(cycle uint64) {
	if r.sealed {
		return
	}
	r.sealed = true
	r.started = cycle
	r.lastRoll = cycle
	type centry struct {
		name  string
		read  func() uint64
		gauge bool
	}
	var ctrs []centry
	for _, s := range r.sources {
		prefix := s.name + "/"
		// A registered name that already starts with the source prefix
		// (the cluster registry registers "cluster/..." counters) is not
		// prefixed again: "cluster/nodes_down", not "cluster/cluster/...".
		full := func(name string) string {
			if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
				return name
			}
			return prefix + name
		}
		s.reg.VisitCounters(func(name string, read func() uint64, gauge bool) {
			ctrs = append(ctrs, centry{name: full(name), read: read, gauge: gauge})
		})
		s.reg.VisitHistograms(func(h *counters.Histogram) {
			r.histNames = append(r.histNames, full(h.Name()))
			r.hists = append(r.hists, h)
		})
	}
	sort.Slice(ctrs, func(i, j int) bool { return ctrs[i].name < ctrs[j].name })
	r.ctrNames = make([]string, len(ctrs))
	r.ctrRead = make([]func() uint64, len(ctrs))
	r.ctrGauge = make([]bool, len(ctrs))
	for i, c := range ctrs {
		r.ctrNames[i] = c.name
		r.ctrRead[i] = c.read
		r.ctrGauge[i] = c.gauge
	}
	sort.Sort(&histSorter{r.histNames, r.hists})

	r.prevCtr = make([]uint64, len(r.ctrRead))
	for i, read := range r.ctrRead {
		r.prevCtr[i] = read()
	}
	r.prevHist = make([]counters.HistState, len(r.hists))
	for i, h := range r.hists {
		h.ReadState(&r.prevHist[i])
	}
	r.startHist = append([]counters.HistState(nil), r.prevHist...)
	r.win.CtrEnd = make([]uint64, len(r.ctrRead))
	r.win.CtrDelta = make([]uint64, len(r.ctrRead))
	r.win.Hist = make([]HistWindow, len(r.hists))
	if r.slo != nil {
		var unbound []string
		r.bindings, unbound = r.slo.bind(r.ctrNames, r.ctrGauge, r.histNames)
		r.writeHeader(cycle)
		// A rule whose glob matches no series is surfaced in the event
		// log instead of silently never evaluating.
		for _, raw := range unbound {
			r.Event(cycle, "slo_unbound", "", raw, 0)
		}
	} else {
		r.writeHeader(cycle)
	}
}

// histSorter sorts the parallel (names, hists) slices by name.
type histSorter struct {
	names []string
	hists []*counters.Histogram
}

func (s *histSorter) Len() int           { return len(s.names) }
func (s *histSorter) Less(i, j int) bool { return s.names[i] < s.names[j] }
func (s *histSorter) Swap(i, j int) {
	s.names[i], s.names[j] = s.names[j], s.names[i]
	s.hists[i], s.hists[j] = s.hists[j], s.hists[i]
}

// Event appends one cycle-stamped event to the log; it is written to the
// recording at the next Roll or Flush, in append order.
//
//csb:barrier appends to the shared event log; only safe between windows
func (r *Recorder) Event(cycle uint64, kind, node string, rule string, value float64) {
	r.eventCount++
	r.pending = append(r.pending, Event{Cycle: cycle, Kind: kind, Node: node, Rule: rule, Value: value}) //csb:alloc-ok events are rare (faults, breaches); drained every window
}

// Roll closes the window (lastRoll, cycle]: reads every counter and
// histogram, computes the window's deltas, evaluates the SLO rules, and
// appends the pending events plus the window frame to the recording.
// Alloc-free in steady state (no events firing, scratch buffers grown).
// A cycle at or before the previous roll is a no-op, so abort-path
// flushes never emit empty windows.
//
//csb:barrier reads every source registry; only safe between windows
func (r *Recorder) Roll(cycle uint64) {
	if !r.sealed {
		r.Start(cycle)
		return
	}
	if cycle <= r.lastRoll || r.footerDone {
		return
	}
	w := &r.win
	w.Index = r.windows
	w.C0 = r.lastRoll
	w.C1 = cycle
	for i, read := range r.ctrRead {
		v := read()
		w.CtrEnd[i] = v
		w.CtrDelta[i] = v - r.prevCtr[i]
		r.prevCtr[i] = v
	}
	for i, h := range r.hists {
		h.ReadState(&r.curHist)
		w.Hist[i] = histWindow(&r.prevHist[i], &r.curHist)
		r.prevHist[i] = r.curHist
	}
	r.windows++
	r.lastRoll = cycle
	r.evalSLO(w)
	r.drainEvents()
	r.writeWindow(w)
}

// histWindow summarizes the samples a histogram took between two states.
func histWindow(prev, cur *counters.HistState) HistWindow {
	s := counters.WindowStats(prev, cur)
	return HistWindow{N: s.Count, Sum: cur.Sum - prev.Sum,
		Min: s.Min, P50: s.P50, P95: s.P95, P99: s.P99, Max: s.Max}
}

// Flush closes the recording: a final partial window if cycles elapsed
// since the last roll, any pending events, the attached tracers'
// journeys and spans, the pipeline tail, and the footer frame with every
// histogram's statistics over the whole run (exact at bucket resolution,
// unlike any merge of per-window quantiles). Safe to call more than once
// (the footer is written exactly once) — both the abort paths and the
// normal end-of-run path funnel through it.
//
//csb:barrier reads every source registry; only safe between windows
func (r *Recorder) Flush(cycle uint64) {
	if !r.sealed {
		r.Start(cycle)
	}
	if cycle > r.lastRoll {
		r.Roll(cycle)
	} else {
		r.drainEvents()
	}
	if r.footerDone {
		return
	}
	r.footerDone = true
	if r.journeys != nil {
		for _, j := range r.journeys.Slowest() {
			r.writeJourney("slowest", &j)
		}
		for _, j := range r.journeys.Retained() {
			r.writeJourney("recent", &j)
		}
	}
	if r.spans != nil {
		for _, s := range r.spans.Retained() {
			r.writeSpan(&s.Span)
		}
	}
	if r.pipeline != nil {
		insts, bus := r.pipeline()
		for i := range insts {
			r.writeInst(&insts[i])
		}
		for i := range bus {
			r.writeBus(&bus[i])
		}
	}
	r.jbuf = r.jbuf[:0]
	r.jbuf = append(r.jbuf, `{"k":"f","c":`...)
	r.jbuf = strconv.AppendUint(r.jbuf, cycle, 10)
	r.jbuf = append(r.jbuf, `,"windows":`...)
	r.jbuf = strconv.AppendUint(r.jbuf, r.windows, 10)
	r.jbuf = append(r.jbuf, `,"events":`...)
	r.jbuf = strconv.AppendUint(r.jbuf, r.eventCount, 10)
	r.jbuf = append(r.jbuf, `,"total":[`...)
	for i, h := range r.hists {
		h.ReadState(&r.curHist)
		r.appendHistRow(i, histWindow(&r.startHist[i], &r.curHist))
	}
	r.jbuf = append(r.jbuf, `]}`...)
	r.writeFrame()
}

// ActiveAlerts returns the currently-breached SLO bindings in evaluation
// order (deterministic: rule order × sorted series order).
func (r *Recorder) ActiveAlerts() []Alert {
	var out []Alert
	for i := range r.bindings {
		b := &r.bindings[i]
		if b.breached {
			out = append(out, Alert{
				Rule:   b.rule.Raw,
				Series: b.series,
				Since:  b.since,
				Value:  b.last,
			})
		}
	}
	return out
}

// evalSLO evaluates every binding against the freshly rolled window and
// logs breach/recover transitions via the same evalBindings path that
// offline `csbrec check` replays.
func (r *Recorder) evalSLO(w *Window) {
	evalBindings(r.bindings, w, func(ev Event) {
		r.Event(ev.Cycle, ev.Kind, ev.Node, ev.Rule, ev.Value)
	})
}

// ---- frame writing ----

// drainEvents writes (and clears) the pending event frames.
func (r *Recorder) drainEvents() {
	for i := range r.pending {
		ev := &r.pending[i]
		r.jbuf = r.jbuf[:0]
		r.jbuf = append(r.jbuf, `{"k":"e","c":`...)
		r.jbuf = strconv.AppendUint(r.jbuf, ev.Cycle, 10)
		r.jbuf = append(r.jbuf, `,"ev":`...)
		r.jbuf = appendJSONString(r.jbuf, ev.Kind)
		if ev.Node != "" {
			r.jbuf = append(r.jbuf, `,"n":`...)
			r.jbuf = appendJSONString(r.jbuf, ev.Node)
		}
		if ev.Rule != "" {
			r.jbuf = append(r.jbuf, `,"r":`...)
			r.jbuf = appendJSONString(r.jbuf, ev.Rule)
		}
		if ev.Value != 0 {
			r.jbuf = append(r.jbuf, `,"val":`...)
			r.jbuf = strconv.AppendFloat(r.jbuf, ev.Value, 'g', -1, 64)
		}
		r.jbuf = append(r.jbuf, '}')
		r.writeFrame()
	}
	r.pending = r.pending[:0]
}

// writeHeader emits the header frame: format version, cadence, source
// names, SLO rule texts, the sorted series tables the window frames'
// positional arrays align with, and (when there are any) the gauges'
// names.
func (r *Recorder) writeHeader(cycle uint64) {
	r.jbuf = r.jbuf[:0]
	r.jbuf = append(r.jbuf, `{"k":"h","v":`...)
	r.jbuf = strconv.AppendUint(r.jbuf, FormatVersion, 10)
	r.jbuf = append(r.jbuf, `,"every":`...)
	r.jbuf = strconv.AppendUint(r.jbuf, r.cfg.Every, 10)
	r.jbuf = append(r.jbuf, `,"c":`...)
	r.jbuf = strconv.AppendUint(r.jbuf, cycle, 10)
	r.jbuf = append(r.jbuf, `,"sources":[`...)
	for i, s := range r.sources {
		if i > 0 {
			r.jbuf = append(r.jbuf, ',')
		}
		r.jbuf = appendJSONString(r.jbuf, s.name)
	}
	r.jbuf = append(r.jbuf, `],"slo":[`...)
	if r.slo != nil {
		for i := range r.slo.Rules {
			if i > 0 {
				r.jbuf = append(r.jbuf, ',')
			}
			r.jbuf = appendJSONString(r.jbuf, r.slo.Rules[i].Raw)
		}
	}
	r.jbuf = append(r.jbuf, `],"ctrn":[`...)
	for i, n := range r.ctrNames {
		if i > 0 {
			r.jbuf = append(r.jbuf, ',')
		}
		r.jbuf = appendJSONString(r.jbuf, n)
	}
	gauges := 0
	for i, n := range r.ctrNames {
		if !r.ctrGauge[i] {
			continue
		}
		if gauges == 0 {
			r.jbuf = append(r.jbuf, `],"gauges":[`...)
		} else {
			r.jbuf = append(r.jbuf, ',')
		}
		r.jbuf = appendJSONString(r.jbuf, n)
		gauges++
	}
	r.jbuf = append(r.jbuf, `],"histn":[`...)
	for i, n := range r.histNames {
		if i > 0 {
			r.jbuf = append(r.jbuf, ',')
		}
		r.jbuf = appendJSONString(r.jbuf, n)
	}
	r.jbuf = append(r.jbuf, `]}`...)
	r.writeFrame()
}

// writeWindow emits one window frame: [end,delta] per counter series and
// [n,sum,min,p50,p95,p99,max] per histogram series, positionally aligned
// with the header tables.
func (r *Recorder) writeWindow(w *Window) {
	r.jbuf = r.jbuf[:0]
	r.jbuf = append(r.jbuf, `{"k":"w","i":`...)
	r.jbuf = strconv.AppendUint(r.jbuf, w.Index, 10)
	r.jbuf = append(r.jbuf, `,"c0":`...)
	r.jbuf = strconv.AppendUint(r.jbuf, w.C0, 10)
	r.jbuf = append(r.jbuf, `,"c1":`...)
	r.jbuf = strconv.AppendUint(r.jbuf, w.C1, 10)
	r.jbuf = append(r.jbuf, `,"ctr":[`...)
	for i := range w.CtrEnd {
		if i > 0 {
			r.jbuf = append(r.jbuf, ',')
		}
		r.jbuf = append(r.jbuf, '[')
		r.jbuf = strconv.AppendUint(r.jbuf, w.CtrEnd[i], 10)
		r.jbuf = append(r.jbuf, ',')
		r.jbuf = strconv.AppendUint(r.jbuf, w.CtrDelta[i], 10)
		r.jbuf = append(r.jbuf, ']')
	}
	r.jbuf = append(r.jbuf, `],"hist":[`...)
	for i, h := range w.Hist {
		r.appendHistRow(i, h)
	}
	r.jbuf = append(r.jbuf, `]}`...)
	r.writeFrame()
}

// appendHistRow appends the i-th [n,sum,min,p50,p95,p99,max] row of a
// histogram list.
func (r *Recorder) appendHistRow(i int, h HistWindow) {
	if i > 0 {
		r.jbuf = append(r.jbuf, ',')
	}
	r.jbuf = append(r.jbuf, '[')
	r.jbuf = strconv.AppendUint(r.jbuf, h.N, 10)
	for _, v := range [6]uint64{h.Sum, h.Min, h.P50, h.P95, h.P99, h.Max} {
		r.jbuf = append(r.jbuf, ',')
		r.jbuf = strconv.AppendUint(r.jbuf, v, 10)
	}
	r.jbuf = append(r.jbuf, ']')
}

// writeJourney emits one "j" frame: a journey of the given set with its
// hop stamps, and the flags that are set.
func (r *Recorder) writeJourney(set string, j *journey.Journey) {
	doc, _ := json.Marshal(struct { // cannot fail: no maps, floats or interfaces
		K string `json:"k"`
		journeyJSON
	}{"j", journeyJSON{set, j.ID, j.Kind.String(), j.Addr, j.Size, j.T, j.Coalesced, j.Aborted, j.Done}})
	r.jbuf = append(r.jbuf[:0], doc...)
	r.writeFrame()
}

// writeSpan emits one "s" frame: a wire span with its aligned stamps.
func (r *Recorder) writeSpan(s *ctrace.Span) {
	doc, _ := json.Marshal(struct { // cannot fail: no maps, floats or interfaces
		K string `json:"k"`
		*ctrace.Span
	}{"s", s})
	r.jbuf = append(r.jbuf[:0], doc...)
	r.writeFrame()
}

// writeInst emits one "i" frame: a retired instruction of the tail.
func (r *Recorder) writeInst(e *obs.InstEvent) {
	doc, _ := json.Marshal(struct { // cannot fail: no maps, floats or interfaces
		K string `json:"k"`
		*obs.InstEvent
	}{"i", e})
	r.jbuf = append(r.jbuf[:0], doc...)
	r.writeFrame()
}

// writeBus emits one "b" frame: a bus transaction of the tail.
func (r *Recorder) writeBus(e *obs.BusEvent) {
	doc, _ := json.Marshal(struct { // cannot fail: no maps, floats or interfaces
		K string `json:"k"`
		*obs.BusEvent
	}{"b", e})
	r.jbuf = append(r.jbuf[:0], doc...)
	r.writeFrame()
}

// writeFrame wraps r.jbuf as one length-prefixed frame and writes it in
// a single call. A write error is sticky and stops further file output;
// windows keep rolling.
func (r *Recorder) writeFrame() {
	if r.w == nil || r.err != nil {
		return
	}
	r.fbuf = r.fbuf[:0]
	r.fbuf = strconv.AppendUint(r.fbuf, uint64(len(r.jbuf)), 10)
	r.fbuf = append(r.fbuf, '\n')
	r.fbuf = append(r.fbuf, r.jbuf...)
	r.fbuf = append(r.fbuf, '\n')
	if _, err := r.w.Write(r.fbuf); err != nil {
		r.err = fmt.Errorf("rec: write: %w", err)
	}
}

// appendJSONString appends s as a quoted JSON string. Series and event
// names are plain ASCII; the escape handles the general case anyway.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, `\u00`...)
			const hex = "0123456789abcdef"
			b = append(b, hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}
