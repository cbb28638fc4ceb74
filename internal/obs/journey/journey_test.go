package journey

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"

	"csbsim/internal/obs/counters"
)

// newTestTracer builds a tracer on a settable fake clock, with its
// counters and histograms in the returned registry.
func newTestTracer(t *testing.T) (*Tracer, *counters.Registry, *uint64) {
	t.Helper()
	cycle := new(uint64)
	reg := counters.NewRegistry()
	tr, err := NewTracer(reg, func() uint64 { return *cycle })
	if err != nil {
		t.Fatal(err)
	}
	return tr, reg, cycle
}

func TestTracerLifecycle(t *testing.T) {
	tr, reg, cycle := newTestTracer(t)
	count := func(name string) uint64 { return reg.Snapshot().Counters["journey/"+name] }

	// Uncached store: retire @10, dequeue @20, grant @50, complete @110.
	*cycle = 10
	id := tr.UBStoreAccepted(0x4000_0000, 8, false)
	*cycle = 20
	tr.UBEntryDeparted(id, 1)
	*cycle = 50
	tr.UBBusGranted(id, 1)
	*cycle = 110
	tr.UBEntryDone(id, 1)

	if got := count("uncached_store/started"); got != 1 {
		t.Errorf("started = %d, want 1", got)
	}
	if got := count("uncached_store/completed"); got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
	s := reg.Snapshot().Histograms["journey/e2e/uncached_store"]
	if s.Count != 1 || s.Min != 100 || s.Max != 100 {
		t.Errorf("e2e summary = %+v, want one sample of 100", s)
	}

	// CSB sequence: two stores, first flush fails (abort), retry commits.
	*cycle = 200
	first := tr.CSBStoreAccepted(0x4100_0000, 8, false)
	tr.CSBStoreAccepted(0x4100_0008, 8, true)
	tr.CSBSequenceAborted(first, 2)
	if got := count("csb_store/aborted"); got != 2 {
		t.Errorf("aborted = %d, want 2", got)
	}
	*cycle = 210
	first = tr.CSBStoreAccepted(0x4100_0000, 8, false)
	tr.CSBStoreAccepted(0x4100_0008, 8, true)
	*cycle = 220
	tr.CSBFlushCommitted(first, 2)
	*cycle = 230
	tr.CSBBusGranted(first, 2)
	*cycle = 290
	tr.CSBLineDone(first, 2)
	if got := count("csb_store/completed"); got != 2 {
		t.Errorf("csb completed = %d, want 2", got)
	}

	// The slowest set and retained list must both see all finished work.
	slow := tr.Slowest()
	if len(slow) != 3 {
		t.Fatalf("slowest has %d journeys, want 3", len(slow))
	}
	if slow[0].Kind != KindUncachedStore || slow[0].E2E() != 100 {
		t.Errorf("slowest[0] = %+v, want the 100-cycle uncached store", slow[0])
	}
	retained := tr.Retained()
	if len(retained) != 5 { // 1 uncached + 2 aborted + 2 committed
		t.Errorf("retained %d journeys, want 5", len(retained))
	}
	for _, name := range kindNames {
		if k, err := ParseKind(name); err != nil || k.String() != name {
			t.Errorf("ParseKind(%q) = %v, %v", name, k, err)
		}
	}
	if _, err := ParseKind("kind(4)"); err == nil {
		t.Error("ParseKind accepted an unknown kind")
	}
}

// TestSlowestPerKind holds the slowest sets to one per kind: in a mixed
// run where uncached and CSB stores (e2e 64) far outnumber and outlast
// NIC descriptors (e2e 6), each finished kind still keeps its own topN,
// and the set holds each kind's slowest ones, slowest first.
func TestSlowestPerKind(t *testing.T) {
	tr, _, cycle := newTestTracer(t)
	for i := 0; i < 3*topN; i++ {
		*cycle = uint64(1000 * i)
		id := tr.UBStoreAccepted(0x4000_0000, 8, false)
		tr.UBEntryDeparted(id, 1)
		tr.UBBusGranted(id, 1)
		*cycle += 64 + uint64(i%5)
		tr.UBEntryDone(id, 1)

		id = tr.CSBStoreAccepted(0x4100_0000, 8, false)
		tr.CSBFlushCommitted(id, 1)
		tr.CSBBusGranted(id, 1)
		*cycle += 64
		tr.CSBLineDone(id, 1)

		if i%2 == 0 {
			id = tr.NICDescQueued(0, 64, false)
			*cycle += 2
			tr.NICTxStarted(id)
			*cycle += 4 + uint64(i%3)
			tr.NICTxDone(id)
		}
	}
	per := map[Kind][]Journey{}
	for _, j := range tr.Slowest() {
		per[j.Kind] = append(per[j.Kind], j)
	}
	for _, k := range []Kind{KindUncachedStore, KindCSBStore, KindNICDesc} {
		s := per[k]
		if len(s) != topN {
			t.Errorf("%s: %d journeys in the slowest set, want %d", k, len(s), topN)
			continue
		}
		for i := 1; i < len(s); i++ {
			if s[i].E2E() > s[i-1].E2E() {
				t.Errorf("%s: slowest set out of order at %d", k, i)
			}
		}
		want := map[Kind]uint64{KindUncachedStore: 68, KindCSBStore: 64, KindNICDesc: 8}[k]
		if s[0].E2E() != want {
			t.Errorf("%s: slowest e2e %d, want %d", k, s[0].E2E(), want)
		}
		if k == KindNICDesc && s[topN-1].E2E() != 7 {
			t.Errorf("%s: %d-th slowest e2e %d, want 7 (the 6-cycle ones are the fastest)", k, topN, s[topN-1].E2E())
		}
	}
}

func TestStaleStampDropped(t *testing.T) {
	reg := counters.NewRegistry()
	var cycle uint64
	tr := newTracer(2, reg, func() uint64 { return cycle })
	id := tr.UBStoreAccepted(0x1000, 8, false)
	// Two more journeys evict the first from its 2-slot ring.
	tr.UBStoreAccepted(0x1008, 8, false)
	tr.UBStoreAccepted(0x1010, 8, false)
	cycle = 50
	tr.UBEntryDeparted(id, 1) // journey gone: counted, not crashed
	if got := reg.Snapshot().Counters["journey/stale_drops"]; got != 1 {
		t.Errorf("journey/stale_drops = %d, want 1", got)
	}
}

// TestStampPathsZeroAlloc pins the tracer's hot-loop contract: once the
// rings and the slowest set are warm, opening, stamping, finishing and
// aborting journeys of every kind allocates nothing — the same contract
// the //csb:hotpath pragmas declare to the hotalloc analyzer.
func TestStampPathsZeroAlloc(t *testing.T) {
	tr, _, cycle := newTestTracer(t)
	drive := func() {
		for i := 0; i < 100; i++ {
			*cycle += 3
			id := tr.UBStoreAccepted(0x4000_0000+uint64(i)*8, 8, i%2 == 0)
			*cycle += 5
			tr.UBEntryDeparted(id, 1)
			*cycle += 7
			tr.UBBusGranted(id, 1)
			*cycle += 11
			tr.UBEntryDone(id, 1)

			first := tr.CSBStoreAccepted(0x4100_0000, 8, false)
			tr.CSBStoreAccepted(0x4100_0008, 8, true)
			if i%3 == 0 {
				tr.CSBSequenceAborted(first, 2)
			} else {
				*cycle += 2
				tr.CSBFlushCommitted(first, 2)
				tr.CSBBusGranted(first, 2)
				*cycle += 48
				tr.CSBLineDone(first, 2)
			}

			did := tr.NICDescQueued(uint64(i)*64, 64, i%2 == 0)
			*cycle += 4
			tr.NICTxStarted(did)
			*cycle += 64
			tr.NICTxDone(did)
		}
	}
	drive() // warm: fill the slowest set so noteSlow stops appending
	if avg := testing.AllocsPerRun(10, drive); avg != 0 {
		t.Errorf("stamp paths allocated %.1f times per 100 journeys, want 0", avg)
	}

	h := counters.NewRegistry().Histogram("probe")
	if avg := testing.AllocsPerRun(10, func() {
		for v := uint64(0); v < 1000; v++ {
			h.Record(v)
		}
	}); avg != 0 {
		t.Errorf("Histogram.Record allocated %.1f times per 1000 records, want 0", avg)
	}
}

// TestHotpathPragmas verifies that every function on the journey stamp
// path, and the histogram record path, carries the //csb:hotpath pragma —
// the contract that puts them under the hotalloc analyzer.
func TestHotpathPragmas(t *testing.T) {
	for _, tc := range []struct {
		file  string
		funcs []string
	}{
		{"journey.go", []string{
			"slot", "begin", "stamp", "stampRange", "finish",
			"noteSlow", "recomputeSlowMin", "abortRange",
			"UBStoreAccepted", "UBEntryDeparted", "UBBusGranted", "UBEntryDone",
			"CSBStoreAccepted", "CSBSequenceAborted", "CSBFlushCommitted",
			"CSBBusGranted", "CSBLineDone",
			"NICDescQueued", "NICTxStarted", "NICTxDone",
			"open", "WireDeparted", "WireDropped",
			"WireArrived", "WireEnqueued", "WireDrained",
		}},
		{"../counters/counters.go", []string{"Record"}},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, tc.file, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		marked := make(map[string]bool)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(c.Text, "//csb:hotpath") {
					marked[fd.Name.Name] = true
				}
			}
		}
		for _, name := range tc.funcs {
			if !marked[name] {
				t.Errorf("%s: %s is on the stamp path but lacks //csb:hotpath", tc.file, name)
			}
		}
	}
}

// TestRegisteredSeries pins what each tracer registers: a machine's the
// store and descriptor series and no wire one, a cluster's the wire
// series and nothing else.
func TestRegisteredSeries(t *testing.T) {
	names := func(reg *counters.Registry) string {
		var out []string
		reg.VisitHistograms(func(h *counters.Histogram) { out = append(out, h.Name()) })
		reg.VisitCounters(func(name string, _ func() uint64, _ bool) { out = append(out, name) })
		return strings.Join(out, " ")
	}
	_, reg, _ := newTestTracer(t)
	machine := "journey/ub/queue_wait journey/csb/combine_window journey/bus/arb_wait journey/bus/xfer " +
		"journey/device/fifo_wait journey/device/tx " +
		"journey/e2e/uncached_store journey/e2e/csb_store journey/e2e/nic_descriptor " +
		"journey/uncached_store/started journey/uncached_store/completed journey/uncached_store/aborted " +
		"journey/csb_store/started journey/csb_store/completed journey/csb_store/aborted " +
		"journey/nic_descriptor/started journey/nic_descriptor/completed journey/nic_descriptor/aborted " +
		"journey/stale_drops"
	if got := names(reg); got != machine {
		t.Errorf("machine tracer registers\n%s\nwant\n%s", got, machine)
	}
	wreg := counters.NewRegistry()
	NewWireTracer(wreg)
	wire := "journey/wire/tx_start journey/wire/wire_depart journey/wire/wire_arrive " +
		"journey/wire/rx_enqueue journey/wire/rx_drain journey/e2e/wire " +
		"journey/wire/started journey/wire/completed journey/wire/aborted journey/stale_drops"
	if got := names(wreg); got != wire {
		t.Errorf("wire tracer registers\n%s\nwant\n%s", got, wire)
	}
}

// driveWire runs one packet through a wire journey's whole lifecycle.
func driveWire(t *WireTracer, fifo, txs, dep, arr, enq, drn uint64) uint64 {
	id := t.WireDeparted("a", "b", 64, 7, fifo, txs, dep)
	t.WireArrived(id, arr)
	t.WireEnqueued(id, enq)
	t.WireDrained(id, drn)
	return id
}

func TestWireLifecycle(t *testing.T) {
	reg := counters.NewRegistry()
	tr := &WireTracer{newTracer(16, reg, nil)}
	id := driveWire(tr, 100, 110, 150, 270, 270, 400)
	if id != 1 {
		t.Fatalf("first wire journey ID = %d, want 1", id)
	}
	if started, completed, aborted := tr.Counts(KindWire); started != 1 || completed != 1 || aborted != 0 {
		t.Fatalf("started=%d completed=%d aborted=%d, want 1/1/0", started, completed, aborted)
	}
	js := tr.Retained()
	if len(js) != 1 {
		t.Fatalf("retained %d journeys, want 1", len(js))
	}
	j := js[0]
	if !j.Done || j.Kind != KindWire || j.Node != "a" || j.To != "b" || j.Link != 7 || j.Size != 64 {
		t.Fatalf("bad wire journey: %+v", j)
	}
	if j.E2E() != 300 {
		t.Fatalf("e2e = %d, want 300", j.E2E())
	}
	if s := tr.Slowest(); len(s) != 1 || s[0] != j {
		t.Fatalf("slowest = %+v, want the one journey", s)
	}
	snap := reg.Snapshot()
	if snap.Counters["journey/wire/completed"] != 1 {
		t.Fatalf("completed counter = %d", snap.Counters["journey/wire/completed"])
	}
	if got := snap.Histograms["journey/wire/wire_arrive"].Max; got != 120 {
		t.Fatalf("wire hop = %d, want 120", got)
	}
	if got := snap.Histograms["journey/e2e/wire"].Max; got != 300 {
		t.Fatalf("e2e hist = %d, want 300", got)
	}
}

// TestWireHopSumMatchesE2E: for every completed wire journey, the
// per-hop deltas of its stamps telescope exactly to the reported
// end-to-end latency, and each hop's histogram took that hop's delta.
func TestWireHopSumMatchesE2E(t *testing.T) {
	reg := counters.NewRegistry()
	tr := &WireTracer{newTracer(64, reg, nil)}
	driveWire(tr, 100, 120, 160, 280, 285, 512)
	driveWire(tr, 900, 900, 950, 1070, 1070, 1100)
	for _, j := range tr.Retained() {
		if !j.Done {
			t.Fatalf("journey %d not done", j.ID)
		}
		var hopSum uint64
		for h := HopDepart; h <= KindWire.Last(); h++ {
			hopSum += j.T[h] - j.T[h-1]
		}
		if hopSum != j.E2E() {
			t.Fatalf("journey %d: hop sum %d != e2e %d", j.ID, hopSum, j.E2E())
		}
	}
	snap := reg.Snapshot()
	names := HopNames(KindWire)
	for _, name := range names[HopDepart:] {
		if got := snap.Histograms["journey/wire/"+name]; got.Count != 2 {
			t.Fatalf("%s count %d, want 2", name, got.Count)
		}
	}
	if got := snap.Histograms["journey/e2e/wire"].Count; got != 2 {
		t.Fatalf("e2e count %d, want 2", got)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestWireStaleDropsOnRingEviction(t *testing.T) {
	tr := &WireTracer{newTracer(2, nil, nil)}
	id1 := tr.WireDeparted("a", "b", 8, 0, 1, 2, 3)
	tr.WireDeparted("a", "b", 8, 0, 4, 5, 6)
	tr.WireDeparted("a", "b", 8, 0, 7, 8, 9) // evicts id1
	tr.WireDrained(id1, 100)
	if tr.stale != 1 {
		t.Fatalf("stale = %d, want 1", tr.stale)
	}
	if _, completed, _ := tr.Counts(KindWire); completed != 0 {
		t.Fatalf("completed = %d, want 0", completed)
	}
}

// TestWireRetainedAligned: identical stamp sequences retain identical
// wire journeys, each stamp as it was taken.
func TestWireRetainedAligned(t *testing.T) {
	mk := func() []Journey {
		tr := &WireTracer{newTracer(8, nil, nil)}
		driveWire(tr, 10, 12, 20, 140, 141, 200)
		driveWire(tr, 300, 300, 310, 430, 430, 488)
		return tr.Retained()
	}
	a, b := mk(), mk()
	if !slices.Equal(a, b) || len(a) != 2 {
		t.Fatalf("retained journeys differ or miscount:\n%+v\n----\n%+v", a, b)
	}
	if j := a[0]; j.T[HopWireDepart] != 20 || j.T[HopWireArrive] != 140 || j.T[HopRxDrain] != 200 || j.E2E() != 190 {
		t.Fatalf("wire stamps changed: %+v", j)
	}
}

// TestWireStampPathZeroAlloc guards the wire stamp path: once the ring
// and the slowest set are warm, opening, stamping, finishing and
// dropping wire journeys must not allocate.
func TestWireStampPathZeroAlloc(t *testing.T) {
	tr := &WireTracer{newTracer(256, nil, nil)}
	var cyc uint64
	drive := func() {
		cyc += 10
		id := tr.WireDeparted("a", "b", 32, 0, cyc, cyc+1, cyc+2)
		tr.WireArrived(id, cyc+120)
		tr.WireEnqueued(id, cyc+120)
		tr.WireDrained(id, cyc+150+cyc%7)
		tr.WireDropped(tr.WireDeparted("b", "a", 8, 0, cyc, cyc, cyc+1))
	}
	for i := 0; i < 64; i++ {
		drive() // fill the slowest set
	}
	if allocs := testing.AllocsPerRun(1000, drive); allocs != 0 {
		t.Fatalf("wire stamp path allocates: %v allocs/op", allocs)
	}
}

// TestWireDropped: a packet the fabric discards is an aborted wire
// journey, counted in the registry and retained with its sender stamps
// and no receiver stamp.
func TestWireDropped(t *testing.T) {
	reg := counters.NewRegistry()
	tr := &WireTracer{newTracer(8, reg, nil)}
	driveWire(tr, 10, 12, 20, 140, 141, 200)
	id := tr.WireDeparted("a", "b", 64, 0, 300, 302, 310)
	tr.WireDropped(id)
	if got := reg.Snapshot().Counters["journey/wire/aborted"]; got != 1 {
		t.Fatalf("journey/wire/aborted = %d, want 1", got)
	}
	var lost Journey
	for _, j := range tr.Retained() {
		if j.ID == id {
			lost = j
		}
	}
	if lost.ID != id {
		t.Fatal("dropped journey not retained")
	}
	if !lost.Aborted || lost.Done || lost.T[HopWireDepart] != 310 || lost.T[HopWireArrive] != 0 {
		t.Fatalf("bad dropped journey: %+v", lost)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCheck: Journey.Check rejects each broken invariant, and
// Tracer.Check a tracer whose counts do not add up.
func TestCheck(t *testing.T) {
	done := Journey{ID: 3, Kind: KindWire, Node: "a", To: "b", Done: true, T: [NumHops]uint64{1, 2, 3, 4, 5, 6}}
	if err := done.Check(); err != nil {
		t.Fatalf("a good journey fails: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(j *Journey)
	}{
		{"zero ID", func(j *Journey) { j.ID = 0 }},
		{"no receiver", func(j *Journey) { j.To = "" }},
		{"no sender", func(j *Journey) { j.Node = "" }},
		{"done and aborted", func(j *Journey) {
			*j = Journey{ID: 1, Kind: KindCSBStore, Done: true, Aborted: true, T: [NumHops]uint64{1, 2, 3, 4}}
		}},
		{"dropped after arriving", func(j *Journey) { j.Done, j.Aborted = false, true }},
		{"drained before enqueued", func(j *Journey) { j.T[HopRxDrain] = 4 }},
		{"store completing before its grant", func(j *Journey) { *j = Journey{ID: 1, Done: true, T: [NumHops]uint64{5, 6, 9, 8}} }},
	} {
		j := done
		tc.edit(&j)
		if err := j.Check(); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, j)
		}
	}
	// A NIC descriptor never stamps the bus slot.
	if err := (&Journey{ID: 1, Kind: KindNICDesc, Done: true, T: [NumHops]uint64{5, 6, 0, 9}}).Check(); err != nil {
		t.Errorf("descriptor journey: %v", err)
	}

	tr := &WireTracer{newTracer(8, nil, nil)}
	driveWire(tr, 10, 12, 20, 140, 141, 200)
	tr.WireDeparted("a", "b", 8, 0, 300, 300, 310)
	if err := tr.Check(); err != nil {
		t.Fatalf("one completed and one open journey: %v", err)
	}
	tr.completed[KindWire]++
	if err := tr.Check(); err == nil {
		t.Error("a completion counted twice passes")
	}
}
