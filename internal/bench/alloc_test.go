//go:build !race

// Excluded under the race detector: its instrumentation allocates on paths
// that are allocation-free in normal builds, which would make the
// AllocsPerRun assertion meaningless.

package bench

import (
	"runtime"
	"testing"

	"csbsim/internal/asm"
	"csbsim/internal/cache"
	"csbsim/internal/mem"
	"csbsim/internal/sim"
)

// The hot loop's contract: once a bandwidth workload reaches steady state,
// Machine.Tick performs no heap allocations — uops, bus transactions,
// combining-buffer entries and store payloads all recycle.
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

// TestBuildAllocs pins machine construction by allocation count and
// bytes, so a setup regression fails on a count rather than on wall time:
// the default machine's Build makes exactly buildAllocs allocations of at
// most buildBytes in all, and a cache level makes two (the Cache and its
// list of tag-array chunks, which are allocated on first fill) whatever
// its number of sets, the 256 KiB L2 in under 1 KiB.
func TestBuildAllocs(t *testing.T) {
	const (
		buildAllocs = 41
		buildBytes  = 32 << 10
		cacheBytes  = 1 << 10
	)
	p := DefaultParams()
	build := func() {
		if _, err := p.Build(); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(20, build); got != buildAllocs {
		t.Errorf("DefaultParams().Build() made %v allocations, want %d", got, buildAllocs)
	}
	if got := bytesPerRun(20, build); got > buildBytes {
		t.Errorf("DefaultParams().Build() allocated %d bytes, want at most %d", got, buildBytes)
	} else {
		t.Logf("DefaultParams().Build() allocated %d bytes", got)
	}
	for _, cfg := range []cache.Config{
		{Size: 256, Assoc: 2, LineSize: 64},       // 2 sets
		{Size: 256 << 10, Assoc: 4, LineSize: 64}, // 1024 sets: the default L2
	} {
		newCache := func() {
			if _, err := cache.New(cfg); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(20, newCache); got != 2 {
			t.Errorf("cache.New(%+v) made %v allocations, want 2", cfg, got)
		}
		if got := bytesPerRun(20, newCache); got >= cacheBytes {
			t.Errorf("cache.New(%+v) allocated %d bytes, want under %d", cfg, got, cacheBytes)
		} else {
			t.Logf("cache.New(%+v) allocated %d bytes", cfg, got)
		}
	}
}

// TestRegenerationAllocs pins what one regeneration of the 22 figures
// costs on one sweep worker: the machines built through build, one per
// Sweep call that measures on a machine (each worker resets its machine
// between points; X8's cluster nodes are built by the cluster and not
// counted), and the bytes and allocations of the whole regeneration, the
// assembler's and X8's included, measured after a warm-up regeneration.
func TestRegenerationAllocs(t *testing.T) {
	const (
		regenMachines = 23
		regenAllocs   = 14_000
		regenBytes    = 8_300_000
	)
	prev := Workers()
	SetWorkers(1)
	defer SetWorkers(prev)
	machines := 0
	defer func(b func(sim.Config) (*sim.Machine, error)) { build = b }(build)
	newMachine := build
	build = func(cfg sim.Config) (*sim.Machine, error) {
		machines++
		return newMachine(cfg)
	}
	regenerate := func() {
		for _, id := range goldenFigureIDs {
			if _, err := ByID(id); err != nil {
				t.Fatalf("figure %s: %v", id, err)
			}
		}
	}
	regenerate()
	machines = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	regenerate()
	runtime.ReadMemStats(&after)
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("one regeneration: %d machines built, %d allocations, %d bytes", machines, allocs, bytes)
	if machines != regenMachines {
		t.Errorf("one regeneration built %d machines, want %d", machines, regenMachines)
	}
	if allocs > regenAllocs {
		t.Errorf("one regeneration made %d allocations, want at most %d", allocs, regenAllocs)
	}
	if bytes > regenBytes {
		t.Errorf("one regeneration allocated %d bytes, want at most %d", bytes, regenBytes)
	}
}

// TestAssembleAllocs pins the assembler's allocations per program, a
// fixed handful whatever its length (among them the statement list, the
// operand slab, the token buffer every line reuses and the one buffer all
// chunks are cut from): registers resolve through a name table and
// single-term displacements need no term list, so no source line
// allocates on its own.
func TestAssembleAllocs(t *testing.T) {
	ping, _ := PingPongPrograms(SendCSB, 30)
	for _, tc := range []struct {
		name, src string
		allocs    float64
	}{
		{"bandwidth-4096-64-csb", StoreBandwidthProgram(4096, 64, true), 8},
		{"ping-csb", ping, 8},
	} {
		got := testing.AllocsPerRun(20, func() {
			if _, err := asm.Assemble(tc.name, tc.src); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.allocs {
			t.Errorf("assembling %s made %v allocations, want %v", tc.name, got, tc.allocs)
		}
	}
}

// bytesPerRun returns the heap bytes one call of f allocates, averaged
// over runs calls after a warm-up call, as runtime.MemStats.TotalAlloc
// counts them.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
