// Recording reader: parses the length-prefixed frame stream back into a
// Recording, whole or as it is appended, tolerating a truncated tail (an
// aborted writer leaves a valid prefix), plus the tolerance-aware Diff
// used for same-seed regression checks and parallel-vs-sequential
// identity tests.
package rec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"

	"csbsim/internal/obs"
	"csbsim/internal/obs/journey"
)

// Recording is a fully parsed recording file.
type Recording struct {
	Version   int
	Every     uint64
	Start     uint64 // cycle the recorder sealed (header "c")
	End       uint64 // footer cycle (0 if not cleanly closed)
	Sources   []string
	SLOSpecs  []string
	CtrNames  []string
	Gauge     []bool // aligned with CtrNames: the series is a gauge
	HistNames []string
	Windows   []Window
	Events    []Event
	Total     []HistWindow // footer: whole-run row per HistNames entry (nil without one)
	// Slowest and Journeys hold every journey tracer's slowest set
	// (slowest first) and retained recent journeys (by start cycle),
	// tracer after tracer; each journey names its node.
	Slowest   []journey.Journey
	Journeys  []journey.Journey
	Insts     []obs.InstEvent // the pipeline tail's last retired instructions, oldest first
	Bus       []obs.BusEvent  // the pipeline tail's last bus transactions, oldest first
	Clean     bool            // footer frame present
	Truncated bool            // a malformed or incomplete trailing frame dropped
}

// frameJSON is the union of every frame kind's fields.
type frameJSON struct {
	K       string      `json:"k"`
	V       int         `json:"v"`
	Every   uint64      `json:"every"`
	C       uint64      `json:"c"`
	Sources []string    `json:"sources"`
	SLO     []string    `json:"slo"`
	CtrN    []string    `json:"ctrn"`
	Gauges  []string    `json:"gauges"`
	HistN   []string    `json:"histn"`
	I       uint64      `json:"i"`
	C0      uint64      `json:"c0"`
	C1      uint64      `json:"c1"`
	Ctr     [][2]uint64 `json:"ctr"`
	Hist    [][7]uint64 `json:"hist"`
	Ev      string      `json:"ev"`
	N       string      `json:"n"`
	R       string      `json:"r"`
	Val     float64     `json:"val"`
	Windows uint64      `json:"windows"`
	Events  uint64      `json:"events"`
	Total   [][7]uint64 `json:"total"`
	journeyJSON
}

// journeyJSON is a "j" frame's journey: its set ("slowest" or
// "recent"), its node, its fields, the kind's stamps, and the flags that
// are set.
type journeyJSON struct {
	Set       string   `json:"set"`
	Node      string   `json:"node"`
	To        string   `json:"to,omitempty"`
	ID        uint64   `json:"id"`
	Kind      string   `json:"kind"`
	Link      uint64   `json:"link,omitempty"`
	Addr      uint64   `json:"addr"`
	Size      uint32   `json:"size"`
	T         []uint64 `json:"t"`
	Coalesced bool     `json:"coalesced,omitempty"`
	Aborted   bool     `json:"aborted,omitempty"`
	Done      bool     `json:"done,omitempty"`
}

// ReadFile parses a recording file.
func ReadFile(path string) (*Recording, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rc, err := Read(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rc, nil
}

// Read parses recording bytes: one Parser fed the whole file.
func Read(data []byte) (*Recording, error) {
	var p Parser
	p.Write(data)
	return p.Recording()
}

// Parser parses a recording incrementally: each Write hands it the bytes
// appended since the previous one (a followed file's new data), and every
// frame they complete is parsed on arrival. A frame still missing bytes
// waits for the next Write. A frame of a kind the parser does not know is
// skipped. A malformed frame ends the recording there: it and everything
// after it are dropped and the recording is Truncated.
type Parser struct {
	rc     Recording
	tail   []byte // an incomplete trailing frame, awaiting more bytes
	bad    bool   // a malformed frame ended the recording
	err    error  // the first frame is not a valid header
	lastID map[journeyKey]uint64
}

// journeyKey names one ID sequence of the recent set: a node's journeys
// of one kind.
type journeyKey struct {
	node string
	kind journey.Kind
}

// errNoHeader reports a stream whose first frame is not a header.
var errNoHeader = errors.New("rec: no header frame (not a recording?)")

// maxPrefix bounds a frame's decimal length prefix, so a stream that
// is not a recording is rejected without waiting for a newline.
const maxPrefix = 20

// Write parses every frame data completes. It never fails: a stream that
// is not a recording is reported by Recording.
func (p *Parser) Write(data []byte) (int, error) {
	n := len(data)
	if p.bad {
		return n, nil
	}
	if len(p.tail) > 0 {
		p.tail = append(p.tail, data...)
		data = p.tail
	}
	pos := 0
	for pos < len(data) {
		doc, size := splitFrame(data[pos:])
		if size == 0 {
			break
		}
		err := errNoHeader // for a malformed frame; reported only before the header
		if size > 0 {
			err = p.frame(doc)
		}
		if err != nil {
			if p.rc.Version == 0 {
				p.err = err
			}
			p.bad = true
			break
		}
		pos += size
	}
	p.tail = append(p.tail[:0], data[pos:]...)
	return n, nil
}

// Done reports that no later byte can change the recording: its footer
// has arrived, a malformed frame ended it, or it is not a recording.
func (p *Parser) Done() bool { return p.bad || p.rc.Clean }

// Recording returns what has been parsed so far; it is updated in place
// by later Writes. Truncated reports bytes that did not parse: a
// malformed frame, or a trailing frame still incomplete. An error is
// returned only when no valid header has been parsed.
func (p *Parser) Recording() (*Recording, error) {
	if p.err != nil {
		return nil, p.err
	}
	if p.rc.Version == 0 {
		return nil, errNoHeader
	}
	p.rc.Truncated = p.bad || len(p.tail) > 0
	return &p.rc, nil
}

// splitFrame cuts the first "<len>\n<json>\n" frame off data and returns
// its JSON document and total size: size 0 while data holds only part of
// the frame, -1 when the frame is malformed.
func splitFrame(data []byte) (doc []byte, size int) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 && len(data) <= maxPrefix {
		return nil, 0
	}
	if nl < 0 || nl > maxPrefix {
		return nil, -1
	}
	flen, err := strconv.Atoi(string(data[:nl]))
	if err != nil || flen < 0 {
		return nil, -1
	}
	if flen > len(data)-nl-2 { // written so that a huge prefix cannot overflow
		return nil, 0
	}
	if data[nl+1+flen] != '\n' {
		return nil, -1
	}
	return data[nl+1 : nl+1+flen], nl + flen + 2
}

// frame parses one frame into the recording. The first frame must be a
// header of this format version whose gauges all name counter-table
// series; an error after it marks the frame malformed.
func (p *Parser) frame(doc []byte) error {
	var f frameJSON
	err := json.Unmarshal(doc, &f)
	rc := &p.rc
	if rc.Version == 0 {
		if err != nil || f.K != "h" {
			return errNoHeader
		}
		if f.V != FormatVersion {
			return fmt.Errorf("rec: unsupported format version %d (want %d)", f.V, FormatVersion)
		}
		gauge := make([]bool, len(f.CtrN))
		for _, g := range f.Gauges {
			i := indexOf(f.CtrN, g)
			if i < 0 {
				return fmt.Errorf("rec: gauge %q is not in the counter table", g)
			}
			gauge[i] = true
		}
		rc.Version = f.V
		rc.Every = f.Every
		rc.Start = f.C
		rc.Sources = f.Sources
		rc.SLOSpecs = f.SLO
		rc.CtrNames = f.CtrN
		rc.Gauge = gauge
		rc.HistNames = f.HistN
		return nil
	}
	if err != nil {
		// A newer kind may give a known field another type: the frame is
		// still well formed, and is skipped below.
		var te *json.UnmarshalTypeError
		switch f.K {
		case "h", "w", "e", "j", "i", "b", "f":
			return err
		}
		if !errors.As(err, &te) {
			return err
		}
	}
	switch f.K {
	case "w":
		if len(f.Ctr) != len(rc.CtrNames) || len(f.Hist) != len(rc.HistNames) {
			return fmt.Errorf("rec: window %d series count mismatch", f.I)
		}
		w := Window{
			Index: f.I, C0: f.C0, C1: f.C1,
			CtrEnd:   make([]uint64, len(f.Ctr)),
			CtrDelta: make([]uint64, len(f.Ctr)),
			Hist:     make([]HistWindow, len(f.Hist)),
		}
		for i, c := range f.Ctr {
			w.CtrEnd[i], w.CtrDelta[i] = c[0], c[1]
		}
		for i, h := range f.Hist {
			w.Hist[i] = histRow(h)
		}
		rc.Windows = append(rc.Windows, w)
	case "e":
		rc.Events = append(rc.Events, Event{Cycle: f.C, Kind: f.Ev, Node: f.N, Rule: f.R, Value: f.Val})
	case "j":
		j, err := readJourney(&f.journeyJSON)
		if err != nil {
			return err
		}
		switch f.Set {
		case "slowest":
			rc.Slowest = append(rc.Slowest, j)
		case "recent":
			key := journeyKey{j.Node, j.Kind}
			if j.ID <= p.lastID[key] {
				return fmt.Errorf("rec: %s journey %d on %s out of ID order", j.Kind, j.ID, j.Node)
			}
			if p.lastID == nil {
				p.lastID = make(map[journeyKey]uint64)
			}
			p.lastID[key] = j.ID
			rc.Journeys = append(rc.Journeys, j)
		default:
			return fmt.Errorf("rec: journey %d in unknown set %q", f.ID, f.Set)
		}
	case "i":
		var e obs.InstEvent
		if err := json.Unmarshal(doc, &e); err != nil {
			return err
		}
		if e.Retire == 0 || max(e.Fetch, e.Dispatch, e.Issue, e.Complete) > e.Retire {
			return fmt.Errorf("rec: instruction %d has no retire stamp, or a stage stamped after it", e.Seq)
		}
		rc.Insts = append(rc.Insts, e)
	case "b":
		var e obs.BusEvent
		if err := json.Unmarshal(doc, &e); err != nil {
			return err
		}
		if e.End <= e.Start {
			return fmt.Errorf("rec: bus transaction at %#x ends at %d, not after its start %d", e.Addr, e.End, e.Start)
		}
		rc.Bus = append(rc.Bus, e)
	case "f":
		// A footer written before the whole-run rows existed has none.
		if f.Total != nil {
			if len(f.Total) != len(rc.HistNames) {
				return fmt.Errorf("rec: footer has %d histogram rows for %d series", len(f.Total), len(rc.HistNames))
			}
			rc.Total = make([]HistWindow, len(f.Total))
			for i, h := range f.Total {
				rc.Total[i] = histRow(h)
			}
		}
		rc.Clean = true
		rc.End = f.C
	case "h":
		return errors.New("rec: second header frame")
	}
	// Any other kind is a newer writer's: skipped, so the frames after it
	// (the footer included) still read.
	return nil
}

// readJourney parses a "j" frame's journey: a known kind with its
// number of stamps, a node, and the journey's own invariants
// (journey.Journey.Check).
func readJourney(f *journeyJSON) (journey.Journey, error) {
	k, err := journey.ParseKind(f.Kind)
	if err != nil {
		return journey.Journey{}, err
	}
	j := journey.Journey{ID: f.ID, Kind: k, Node: f.Node, To: f.To, Link: f.Link, Addr: f.Addr,
		Size: f.Size, Coalesced: f.Coalesced, Aborted: f.Aborted, Done: f.Done}
	switch {
	case len(f.T) != int(k.Last())+1:
		return j, fmt.Errorf("rec: %s journey %d has %d stamps, want %d", k, f.ID, len(f.T), k.Last()+1)
	case f.Node == "":
		return j, fmt.Errorf("rec: %s journey %d names no node", k, f.ID)
	}
	copy(j.T[:], f.T)
	return j, j.Check()
}

// histRow reads a [n,sum,min,p50,p95,p99,max] row.
func histRow(h [7]uint64) HistWindow {
	return HistWindow{N: h[0], Sum: h[1], Min: h[2], P50: h[3], P95: h[4], P99: h[5], Max: h[6]}
}

// WindowAt returns the window covering the given cycle (C0 < cycle <=
// C1), or the nearest one when the cycle falls outside the recording;
// ok=false only when there are no windows at all.
func (rc *Recording) WindowAt(cycle uint64) (*Window, bool) {
	if len(rc.Windows) == 0 {
		return nil, false
	}
	i := sort.Search(len(rc.Windows), func(i int) bool { return rc.Windows[i].C1 >= cycle })
	if i == len(rc.Windows) {
		i = len(rc.Windows) - 1
	}
	return &rc.Windows[i], true
}

// CounterIndex returns the series index of a counter name, or -1.
func (rc *Recording) CounterIndex(name string) int { return indexOf(rc.CtrNames, name) }

// IsGauge reports whether counter-table series i is a gauge.
func (rc *Recording) IsGauge(i int) bool { return i < len(rc.Gauge) && rc.Gauge[i] }

// HistIndex returns the series index of a histogram name, or -1.
func (rc *Recording) HistIndex(name string) int { return indexOf(rc.HistNames, name) }

// maxDiffs caps Diff output so two wildly different recordings don't
// produce megabytes of noise.
const maxDiffs = 50

// Diff compares two recordings: windows, events, the footer's whole-run
// histogram rows, the journeys and the pipeline tail. tol is a relative
// tolerance applied to every window and footer number (0 = exact;
// journeys and the tail compare exactly): values a,b
// differ when |a-b| > tol*max(|a|,|b|). Returns human-readable
// differences, empty when the recordings match — the same-seed
// regression contract.
func Diff(a, b *Recording, tol float64) []string {
	var d []string
	add := func(format string, args ...interface{}) {
		if len(d) < maxDiffs {
			d = append(d, fmt.Sprintf(format, args...))
		} else if len(d) == maxDiffs {
			d = append(d, "... (further differences suppressed)")
		}
	}
	if !eqStrings(a.CtrNames, b.CtrNames) {
		add("counter series tables differ (%d vs %d series)", len(a.CtrNames), len(b.CtrNames))
		return d
	}
	for i := range a.CtrNames {
		if a.IsGauge(i) != b.IsGauge(i) {
			add("series %s is a gauge in one recording only", a.CtrNames[i])
			return d
		}
	}
	if !eqStrings(a.HistNames, b.HistNames) {
		add("histogram series tables differ (%d vs %d series)", len(a.HistNames), len(b.HistNames))
		return d
	}
	if a.Every != b.Every {
		add("window cadence differs: %d vs %d", a.Every, b.Every)
	}
	if len(a.Windows) != len(b.Windows) {
		add("window count differs: %d vs %d", len(a.Windows), len(b.Windows))
	}
	n := len(a.Windows)
	if len(b.Windows) < n {
		n = len(b.Windows)
	}
	near := func(x, y uint64) bool {
		if x == y {
			return true
		}
		if tol <= 0 {
			return false
		}
		fx, fy := float64(x), float64(y)
		diff := fx - fy
		if diff < 0 {
			diff = -diff
		}
		m := fx
		if fy > m {
			m = fy
		}
		return diff <= tol*m
	}
	histDiff := func(where string, i int, ha, hb *HistWindow) {
		if !near(ha.N, hb.N) || !near(ha.Sum, hb.Sum) || !near(ha.Min, hb.Min) ||
			!near(ha.P50, hb.P50) || !near(ha.P95, hb.P95) || !near(ha.P99, hb.P99) || !near(ha.Max, hb.Max) {
			add("%s histogram %s: n=%d/%d p50=%d/%d p99=%d/%d max=%d/%d",
				where, a.HistNames[i], ha.N, hb.N, ha.P50, hb.P50, ha.P99, hb.P99, ha.Max, hb.Max)
		}
	}
	for wi := 0; wi < n; wi++ {
		wa, wb := &a.Windows[wi], &b.Windows[wi]
		if wa.C0 != wb.C0 || wa.C1 != wb.C1 {
			add("window %d bounds differ: (%d,%d] vs (%d,%d]", wi, wa.C0, wa.C1, wb.C0, wb.C1)
			continue
		}
		for i := range wa.CtrEnd {
			// A gauge's delta only restates its end values.
			if !near(wa.CtrEnd[i], wb.CtrEnd[i]) || !a.IsGauge(i) && !near(wa.CtrDelta[i], wb.CtrDelta[i]) {
				add("window %d (cycle %d) counter %s: end %d/%d delta %d/%d",
					wi, wa.C1, a.CtrNames[i], wa.CtrEnd[i], wb.CtrEnd[i], wa.CtrDelta[i], wb.CtrDelta[i])
			}
		}
		for i := range wa.Hist {
			histDiff(fmt.Sprintf("window %d (cycle %d)", wi, wa.C1), i, &wa.Hist[i], &wb.Hist[i])
		}
	}
	if len(a.Events) != len(b.Events) {
		add("event count differs: %d vs %d", len(a.Events), len(b.Events))
	}
	ne := len(a.Events)
	if len(b.Events) < ne {
		ne = len(b.Events)
	}
	for i := 0; i < ne; i++ {
		ea, eb := a.Events[i], b.Events[i]
		if ea != eb {
			add("event %d differs: cycle %d %s %s vs cycle %d %s %s",
				i, ea.Cycle, ea.Kind, ea.Node, eb.Cycle, eb.Kind, eb.Node)
		}
	}
	if (a.Total == nil) != (b.Total == nil) {
		add("whole-run histogram rows in one recording only")
	} else {
		for i := range a.Total {
			histDiff("whole-run", i, &a.Total[i], &b.Total[i])
		}
	}
	for _, set := range [2]struct {
		name string
		a, b []journey.Journey
	}{{"slowest", a.Slowest, b.Slowest}, {"recent", a.Journeys, b.Journeys}} {
		if len(set.a) != len(set.b) {
			add("%s journey count differs: %d vs %d", set.name, len(set.a), len(set.b))
		}
		for i := 0; i < min(len(set.a), len(set.b)); i++ {
			if ja, jb := set.a[i], set.b[i]; ja != jb {
				add("%s journey %d differs: %s %s %d at %d, e2e %d vs %s %s %d at %d, e2e %d", set.name, i,
					ja.Node, ja.Kind, ja.ID, ja.T[journey.HopStart], ja.E2E(),
					jb.Node, jb.Kind, jb.ID, jb.T[journey.HopStart], jb.E2E())
			}
		}
	}
	if len(a.Insts) != len(b.Insts) {
		add("instruction count differs: %d vs %d", len(a.Insts), len(b.Insts))
	}
	for i := 0; i < min(len(a.Insts), len(b.Insts)); i++ {
		if ea, eb := a.Insts[i], b.Insts[i]; ea != eb {
			add("instruction %d differs: seq %d %q retired at %d vs seq %d %q retired at %d", i,
				ea.Seq, ea.Disasm, ea.Retire, eb.Seq, eb.Disasm, eb.Retire)
		}
	}
	if len(a.Bus) != len(b.Bus) {
		add("bus transaction count differs: %d vs %d", len(a.Bus), len(b.Bus))
	}
	for i := 0; i < min(len(a.Bus), len(b.Bus)); i++ {
		if ea, eb := a.Bus[i], b.Bus[i]; ea != eb {
			add("bus transaction %d differs: %#x at %d..%d vs %#x at %d..%d", i,
				ea.Addr, ea.Start, ea.End, eb.Addr, eb.Start, eb.End)
		}
	}
	return d
}

// eqStrings reports element-wise equality.
func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
