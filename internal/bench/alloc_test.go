//go:build !race

// Excluded under the race detector: its instrumentation allocates on paths
// that are allocation-free in normal builds, which would make the
// AllocsPerRun assertion meaningless.

package bench

import (
	"testing"

	"csbsim/internal/cache"
	"csbsim/internal/mem"
)

// The hot loop's contract: once a bandwidth workload reaches steady state,
// Machine.Tick performs no heap allocations — uops, branch snapshots, bus
// transactions, combining-buffer entries and store payloads all recycle.
// The journey-traced variants extend that contract to the store-journey
// tracer: ring slots, histogram buckets and the slowest-set all recycle
// too, so tracing every store stays allocation-free in steady state. The
// -wd variants arm the retire-progress watchdog, whose retire ring must
// record every retirement without allocating. The measured window must
// spend most of its cycles in the coast step
// (sim/effort/coasted_cycles), so the check covers that path too.
func TestTickSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name     string
		csb      bool
		journeys bool
		watchdog bool
	}{
		{"store-bandwidth-uncached", false, false, false},
		{"store-bandwidth-csb", true, false, false},
		{"store-bandwidth-uncached-journeys", false, true, false},
		{"store-bandwidth-csb-journeys", true, true, false},
		{"store-bandwidth-uncached-wd", false, false, true},
		{"store-bandwidth-csb-wd", true, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			kind := mem.KindUncached
			if tc.csb {
				p.Scheme = SchemeCSB
				kind = mem.KindCombining
			}
			m, err := p.Build()
			if err != nil {
				t.Fatal(err)
			}
			if tc.journeys {
				if _, err := m.AttachJourneys(); err != nil {
					t.Fatal(err)
				}
			}
			if tc.watchdog {
				if err := m.SetWatchdog(100_000); err != nil {
					t.Fatal(err)
				}
			}
			reg := m.AttachCounters()
			coasted := func() uint64 {
				return reg.Snapshot().Counters["sim/effort/coasted_cycles"]
			}
			const span = 1 << 24 // far more stores than the measured window retires
			m.MapRange(IOBase, span, kind)
			prog, err := m.LoadSource(tc.name, StoreBandwidthProgram(span, p.LineSize, tc.csb))
			if err != nil {
				t.Fatal(err)
			}
			m.WarmProgram(prog)
			// Materialize the target pages: sparse physical memory
			// allocates a page on first touch, which is a cold-start cost,
			// not a per-tick one.
			zero := []byte{0}
			for a := uint64(0); a < span; a += mem.PageSize {
				m.RAM.Write(IOBase+a, zero)
			}
			for i := 0; i < 200_000; i++ {
				m.Tick()
			}
			if m.CPU.Halted() {
				t.Fatal("workload finished during warm-up")
			}
			c0, coasted0 := m.Cycle(), coasted()
			avg := testing.AllocsPerRun(5, func() {
				for i := 0; i < 20_000; i++ {
					m.Tick()
				}
			})
			if m.CPU.Halted() {
				t.Fatal("workload finished during measurement")
			}
			if avg != 0 {
				t.Errorf("steady-state Tick allocated %.1f times per 20k cycles, want 0", avg)
			}
			cycles, n := m.Cycle()-c0, coasted()-coasted0
			t.Logf("coasted %d of %d measured cycles", n, cycles)
			if 2*n < cycles {
				t.Errorf("coasted %d of %d measured cycles, want most", n, cycles)
			}
		})
	}
}

// TestRunSteadyStateZeroAlloc holds Machine.Run, which jumps through
// quiet stretches with CoastFor, to the same contract: in steady state a
// Run over 20k cycles of either store stream allocates exactly what a
// 1000-cycle Run does, which is its cycle-limit error, and
// sim/effort/steps shows that most of those cycles were jumped rather
// than stepped. The "-tail" runs hold the same with the pipeline tail
// attached, as csbsim -record attaches it.
func TestRunSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range []struct{ csb, tail bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		csb := tc.csb
		name := "store-bandwidth-uncached"
		if csb {
			name = "store-bandwidth-csb"
		}
		if tc.tail {
			name += "-tail"
		}
		t.Run(name, func(t *testing.T) {
			p := DefaultParams()
			kind := mem.KindUncached
			if csb {
				p.Scheme = SchemeCSB
				kind = mem.KindCombining
			}
			m, err := p.Build()
			if err != nil {
				t.Fatal(err)
			}
			reg := m.AttachCounters()
			steps := func() uint64 { return reg.Snapshot().Counters["sim/effort/steps"] }
			if tc.tail {
				m.AttachPipeline()
			}
			const span = 1 << 24
			m.MapRange(IOBase, span, kind)
			prog, err := m.LoadSource(name, StoreBandwidthProgram(span, p.LineSize, csb))
			if err != nil {
				t.Fatal(err)
			}
			m.WarmProgram(prog)
			zero := []byte{0}
			for a := uint64(0); a < span; a += mem.PageSize {
				m.RAM.Write(IOBase+a, zero)
			}
			if err := m.Run(200_000); err == nil {
				t.Fatal("workload finished during warm-up")
			}
			limitErr := testing.AllocsPerRun(5, func() { _ = m.Run(1000) })
			c0, steps0 := m.Cycle(), steps()
			avg := testing.AllocsPerRun(5, func() {
				if err := m.Run(20_000); err == nil {
					t.Fatal("workload finished during measurement")
				}
			})
			if avg != limitErr {
				t.Errorf("steady-state Run allocated %.1f times per 20k cycles, its cycle-limit error alone %.1f",
					avg, limitErr)
			}
			cycles, n := m.Cycle()-c0, steps()-steps0
			t.Logf("%d steps over %d measured cycles", n, cycles)
			if 2*n >= cycles {
				t.Errorf("%d steps over %d measured cycles, want most cycles jumped", n, cycles)
			}
		})
	}
}

// TestBuildAllocs pins machine construction by allocation count, so a
// setup regression fails on a count rather than on wall time: the
// default machine's Build makes exactly buildAllocs allocations, and a
// cache level makes two (the Cache and its one flat tag array) whatever
// its number of sets.
func TestBuildAllocs(t *testing.T) {
	const buildAllocs = 55
	p := DefaultParams()
	if got := testing.AllocsPerRun(20, func() {
		if _, err := p.Build(); err != nil {
			t.Fatal(err)
		}
	}); got != buildAllocs {
		t.Errorf("DefaultParams().Build() made %v allocations, want %d", got, buildAllocs)
	}
	for _, cfg := range []cache.Config{
		{Size: 256, Assoc: 2, LineSize: 64},       // 2 sets
		{Size: 256 << 10, Assoc: 4, LineSize: 64}, // 1024 sets
	} {
		if got := testing.AllocsPerRun(20, func() {
			if _, err := cache.New(cfg); err != nil {
				t.Fatal(err)
			}
		}); got != 2 {
			t.Errorf("cache.New(%+v) made %v allocations, want 2", cfg, got)
		}
	}
}
