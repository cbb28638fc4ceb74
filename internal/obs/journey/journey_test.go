package journey

import (
	"go/ast"
	"go/parser"
	"go/token"
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
	if _, err := ParseKind("kind(3)"); err == nil {
		t.Error("ParseKind accepted an unknown kind")
	}
}

func TestStaleStampDropped(t *testing.T) {
	reg := counters.NewRegistry()
	var cycle uint64
	tr, err := newTracer(2, reg, func() uint64 { return cycle })
	if err != nil {
		t.Fatal(err)
	}
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
// the //csb:hotpath pragmas declare to the csbvet analyzer.
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
// the contract that puts them under csbvet's allocation analyzer.
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
