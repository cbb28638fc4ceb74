package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"csbsim/internal/mem"
	"csbsim/internal/obs"
	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/rec"
)

func TestSweepPreservesOrder(t *testing.T) {
	points := make([]int, 100)
	for i := range points {
		points[i] = i
	}
	for _, workers := range []int{1, 3, 8, 200} {
		got, err := Sweep(points, workers, func(p int) (int, error) {
			return p * p, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(points) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(points))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// The reported error must be the lowest-index failure even when a
// higher-index point fails first in wall-clock time.
func TestSweepReportsLowestIndexError(t *testing.T) {
	points := make([]int, 64)
	for i := range points {
		points[i] = i
	}
	_, err := Sweep(points, 8, func(p int) (int, error) {
		switch p {
		case 10:
			time.Sleep(20 * time.Millisecond)
			return 0, fmt.Errorf("slow failure at point %d", p)
		case 40:
			return 0, fmt.Errorf("fast failure at point %d", p)
		}
		return p, nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !strings.Contains(err.Error(), "point 10") {
		t.Errorf("error = %q, want the point-10 failure", err)
	}
}

func TestSweepEmptyAndWorkerClamp(t *testing.T) {
	got, err := Sweep(nil, 4, func(p int) (int, error) { return p, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty sweep = (%v, %v)", got, err)
	}
	// Zero/negative workers fall back to a sane default instead of hanging.
	got, err = Sweep([]int{1, 2, 3}, 0, func(p int) (int, error) { return p + 1, nil })
	if err != nil || !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Fatalf("workers=0 sweep = (%v, %v)", got, err)
	}
}

// A parallel figure run must be byte-identical to the sequential one: the
// sweep only distributes points, it never reorders or perturbs them.
// Every bandwidth figure shares its assembled programs across the sweep
// workers, so under -race this also shows that they are only read.
func TestParallelFigureMatchesSequential(t *testing.T) {
	prev := Workers()
	defer SetWorkers(prev)

	for _, f := range bandwidthFigures {
		SetWorkers(1)
		seq, err := ByID(f.id)
		if err != nil {
			t.Fatal(err)
		}
		SetWorkers(8)
		par, err := ByID(f.id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("figure %s: parallel differs from sequential:\nseq: %+v\npar: %+v", f.id, seq, par)
		}
	}
}

// instrumentedReport runs the store-bandwidth workload on a fresh machine
// with observability hooks attached and renders everything deterministic
// about the run — full stats, retire-event count, and the flight
// recording — as one string for bit-for-bit comparison.
func instrumentedReport(csb, doubleBuf bool) (string, error) {
	p := DefaultParams()
	kind := mem.KindUncached
	if csb {
		p.Scheme = SchemeCSB
		kind = mem.KindCombining
	}
	p.DoubleBufferedCSB = doubleBuf
	m, err := p.Build()
	if err != nil {
		return "", err
	}
	// A private registry keeps Stats free of a counters snapshot, whose
	// pointer %+v would print.
	reg := counters.NewRegistry()
	m.CPU.RegisterCounters("cpu", reg)
	m.Bus.RegisterCounters("bus", reg)
	m.Hier.RegisterCounters("cache", reg)
	m.UB.RegisterCounters("ub", reg)
	m.CSB.RegisterCounters("csb", reg)
	var recording bytes.Buffer
	r, err := rec.New(rec.Config{Every: 5000})
	if err == nil {
		err = r.AddSource("machine", reg)
	}
	if err == nil {
		err = r.SetWriter(&recording)
	}
	if err == nil {
		err = m.AttachPeriodic(5000, r.Roll)
	}
	if err != nil {
		return "", err
	}
	r.Start(m.Cycle())
	var retired int
	m.AttachInstEvents(func(obs.InstEvent) { retired++ })
	m.MapRange(IOBase, 1<<20, kind)
	prog, err := m.LoadSource("concurrency", StoreBandwidthProgram(1<<16, p.LineSize, csb))
	if err != nil {
		return "", err
	}
	m.WarmProgram(prog)
	if err := m.Run(50_000_000); err != nil {
		return "", err
	}
	if err := m.Drain(1_000_000); err != nil {
		return "", err
	}
	m.FlushObs()
	return fmt.Sprintf("%+v\nretire events: %d\n%s", m.Stats(), retired, recording.String()), nil
}

// Machines share no mutable state, so N of them running in different
// goroutines must produce exactly the reports they produce sequentially.
// Run under -race this also exercises the isolation claim the sweep engine
// rests on, with the observability hooks attached.
func TestConcurrentMachinesMatchSequential(t *testing.T) {
	cases := []struct{ csb, dbl bool }{
		{false, false}, {true, false}, {true, true}, {false, true},
	}
	want := make([]string, len(cases))
	for i, cse := range cases {
		r, err := instrumentedReport(cse.csb, cse.dbl)
		if err != nil {
			t.Fatalf("sequential case %d: %v", i, err)
		}
		want[i] = r
	}

	got := make([]string, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	for i, cse := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = instrumentedReport(cse.csb, cse.dbl)
		}()
	}
	wg.Wait()
	for i := range cases {
		if errs[i] != nil {
			t.Fatalf("concurrent case %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("case %d: concurrent report differs from sequential\nseq:\n%s\npar:\n%s",
				i, want[i], got[i])
		}
	}
}
