package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"csbsim/internal/fault"
	"csbsim/internal/mem"
	"csbsim/internal/obs/journey"
	"csbsim/internal/obs/rec"
)

// uncachedStoreLoop mirrors obs_test.go's storeLoop but through plain
// uncached stores — the paper's baseline path.
const uncachedStoreLoop = `
	set 0x40000000, %o1
	mov 8, %g2
loop:
	stx %g1, [%o1]
	stx %g1, [%o1+8]
	stx %g1, [%o1+16]
	stx %g1, [%o1+24]
	stx %g1, [%o1+32]
	stx %g1, [%o1+40]
	stx %g1, [%o1+48]
	stx %g1, [%o1+56]
	subcc %g2, 1, %g2
	bnz loop
	membar
	halt
`

// TestJourneyTracingEndToEnd runs the CSB and uncached store loops with
// the tracer attached and checks the journeys complete, the per-layer
// histograms fill, the counters land in Stats, and — the paper's point —
// the CSB path's mean end-to-end store latency beats the uncached path's.
func TestJourneyTracingEndToEnd(t *testing.T) {
	mCSB := runStoreLoop(t)
	if _, err := mCSB.AttachJourneys(); err != nil {
		t.Fatal(err)
	}
	if err := mCSB.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := mCSB.Drain(1_000_000); err != nil {
		t.Fatal(err)
	}

	mUnc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mUnc.MapRange(0x4000_0000, 1<<16, mem.KindUncached)
	if _, err := mUnc.LoadSource("unc.s", uncachedStoreLoop); err != nil {
		t.Fatal(err)
	}
	if _, err := mUnc.AttachJourneys(); err != nil {
		t.Fatal(err)
	}
	if err := mUnc.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := mUnc.Drain(1_000_000); err != nil {
		t.Fatal(err)
	}

	// The tracer's histograms and run counters live in the registry.
	sCSB, sUnc := mCSB.Counters().Snapshot(), mUnc.Counters().Snapshot()
	csb := sCSB.Histograms["journey/e2e/csb_store"]
	unc := sUnc.Histograms["journey/e2e/uncached_store"]
	if csb.Count == 0 || unc.Count == 0 {
		t.Fatalf("empty e2e histograms: csb %d samples, uncached %d samples", csb.Count, unc.Count)
	}
	c, u := sCSB.Counters, sUnc.Counters
	if got := c["journey/csb_store/started"]; got != c["journey/csb_store/completed"]+c["journey/csb_store/aborted"] {
		t.Errorf("csb journeys leak: started %d, completed %d, aborted %d",
			got, c["journey/csb_store/completed"], c["journey/csb_store/aborted"])
	}
	if got := u["journey/uncached_store/started"]; got != u["journey/uncached_store/completed"] {
		t.Errorf("uncached journeys leak: started %d, completed %d",
			got, u["journey/uncached_store/completed"])
	}
	if csb.Mean >= unc.Mean {
		t.Errorf("CSB mean e2e latency %.1f not below uncached %.1f", csb.Mean, unc.Mean)
	}

	// The tracer's histograms and run counters surface through Stats.
	s := mCSB.Stats()
	if s.Counters == nil {
		t.Fatal("Stats.Counters nil with journeys attached")
	}
	if _, ok := s.Counters.Counters["journey/csb_store/started"]; !ok {
		t.Error("journey counters missing from the registry snapshot")
	}
	if h, ok := s.Counters.Histograms["journey/e2e/csb_store"]; !ok || h.Count == 0 {
		t.Error("journey e2e histogram missing or empty in the registry snapshot")
	}
}

// TestJourneyTracingPerturbsNothing is the bit-identity acceptance
// criterion: attaching the tracer and the counter registry must leave
// every pre-existing statistic byte-for-byte unchanged.
func TestJourneyTracingPerturbsNothing(t *testing.T) {
	run := func(attach bool) []byte {
		m := runStoreLoop(t)
		if attach {
			if _, err := m.AttachJourneys(); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		s := m.Stats()
		s.Counters = nil // the only field tracing is allowed to add
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	off, on := run(false), run(true)
	if !bytes.Equal(off, on) {
		t.Errorf("tracing changed the statistics:\noff: %s\non:  %s", off, on)
	}
}

// recordJourneys attaches a recorder that rolls every 10000 cycles and
// carries the machine's journeys, as `csbsim -journeys -record FILE`
// does; close it with FlushObs and Flush.
func recordJourneys(t *testing.T, m *Machine) (*rec.Recorder, *bytes.Buffer) {
	t.Helper()
	r, err := rec.New(rec.Config{Every: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddSource("machine", m.AttachCounters()); err != nil {
		t.Fatal(err)
	}
	if err := r.AddJourneys(m.Journeys()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.SetWriter(&buf); err != nil {
		t.Fatal(err)
	}
	r.Start(m.Cycle())
	if err := m.AttachPeriodic(10_000, r.Roll); err != nil {
		t.Fatal(err)
	}
	return r, &buf
}

// TestJourneyRecordingDeterministicUnderFaults extends the per-seed
// bit-identity criterion to the journey layer: two runs with the same
// fault seed write byte-identical recordings with journeys (windows,
// whole-run histogram rows, slowest set and retained journeys), and
// another seed changes the journeys themselves.
func TestJourneyRecordingDeterministicUnderFaults(t *testing.T) {
	record := func(seed uint64) []byte {
		cfg := fault.DefaultConfig()
		cfg.Seed = seed
		m, _ := machineWithNIC(t)
		if _, err := m.AttachFaults(cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := m.AttachJourneys(); err != nil {
			t.Fatal(err)
		}
		r, buf := recordJourneys(t, m)
		if _, err := m.LoadSource("nicsend.s", nicsendGuest); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(50_000_000); err != nil {
			t.Fatalf("run: %v", err)
		}
		if err := m.Drain(1_000_000); err != nil {
			t.Fatalf("drain: %v", err)
		}
		m.FlushObs()
		r.Flush(m.Cycle())
		return buf.Bytes()
	}
	journeys := func(data []byte) []any {
		rc, err := rec.Read(data)
		if err != nil || !rc.Clean || len(rc.Journeys) == 0 {
			t.Fatalf("recording: err %v, clean %v, %d journeys", err, rc != nil && rc.Clean, len(rc.Journeys))
		}
		return []any{rc.Total, rc.Slowest, rc.Journeys}
	}

	a, b := record(3), record(3)
	if !bytes.Equal(a, b) {
		t.Error("same fault seed, different recordings")
	}
	if reflect.DeepEqual(journeys(a), journeys(record(4))) {
		t.Error("seeds 3 and 4 recorded identical journeys; the seed is not reaching the schedule")
	}
}

// TestAbortedRunRecordsJourneys: a watchdog-aborted run's recording,
// closed the way csbsim closes it, carries the partial journeys: the
// wedged uncached store is there, not done.
func TestAbortedRunRecordsJourneys(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.MapRange(0x4800_0000, 0x1000, mem.KindUncached)
	if _, err := m.AttachFaults(fault.Config{Seed: 1, BusNack: fault.RateScale}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetWatchdog(5000); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AttachJourneys(); err != nil {
		t.Fatal(err)
	}
	r, buf := recordJourneys(t, m)
	p, err := m.LoadSource("wedge.s", wedgeAfterSpin)
	if err != nil {
		t.Fatal(err)
	}
	m.WarmProgram(p) // the NACKing bus must wedge the store, not the fetch
	var wd *WatchdogError
	if err := m.Run(1_000_000); !errors.As(err, &wd) {
		t.Fatalf("run ended with %v, want *WatchdogError", err)
	}
	m.FlushObs()
	r.Flush(m.Cycle())
	rc, err := rec.Read(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	inFlight := 0
	for _, j := range rc.Journeys {
		if !j.Done && !j.Aborted && j.Kind == journey.KindUncachedStore && j.Addr == 0x4800_0000 {
			inFlight++
		}
	}
	if !rc.Clean || inFlight != 1 {
		t.Errorf("clean=%v, %d in-flight journeys to the wedged address in %+v", rc.Clean, inFlight, rc.Journeys)
	}
}
