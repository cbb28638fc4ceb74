package sim

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csbsim/internal/bus"
	"csbsim/internal/cpu"
	"csbsim/internal/device"
	"csbsim/internal/fault"
	"csbsim/internal/isa"
	"csbsim/internal/mem"
)

// timingHash folds every retired instruction's lifecycle stamps (fetch,
// dispatch, issue, complete, retire) plus its sequence number and PC into
// one FNV-1a hash, so a golden pins per-instruction timing rather than
// only end-of-run totals.
type timingHash struct {
	h hash.Hash64
	n int
}

func attachTimingHash(m *Machine) *timingHash {
	th := &timingHash{h: fnv.New64a()}
	var b [8 * 7]byte
	m.CPU.AttachRetire(func(ev cpu.RetireEvent) {
		for i, v := range [...]uint64{ev.Seq, ev.PC, ev.FetchCycle, ev.DispatchCycle,
			ev.IssueCycle, ev.CompleteCycle, ev.Cycle} {
			binary.LittleEndian.PutUint64(b[8*i:], v)
		}
		th.h.Write(b[:])
		th.n++
	})
	return th
}

// line formats a run's golden line: the retired count, the timing hash
// and an FNV-1a hash of the machine's final Stats JSON, which pins every
// counter (refused attempts, fetch stalls, CPI buckets) beside the timing.
// The observer must have seen every retirement the stats count, halts,
// traps and returns from interrupt included.
func (th *timingHash) line(t *testing.T, name string, m *Machine) string {
	t.Helper()
	if got, want := uint64(th.n), m.CPU.Retired(); got != want {
		t.Errorf("%s: the retire observer saw %d instructions, Stats.CPU.Retired is %d", name, got, want)
	}
	js, err := json.Marshal(m.Stats())
	if err != nil {
		t.Fatal(err)
	}
	sh := fnv.New64a()
	sh.Write(js)
	return fmt.Sprintf("%s %d %016x %016x\n", name, th.n, th.h.Sum64(), sh.Sum64())
}

// timedRun is one machine run of TestRetireTimingGolden. Its line checks
// the CPU's queue and sleep invariants (cpu.CPU.CheckQueues) after every
// cycle, from the driving loop rather than a periodic hook, so the run
// ticks exactly as an unobserved machine would.
type timedRun struct {
	name string
	src  string
	// cfg, if set, edits the default configuration.
	cfg func(*Config)
	// kind maps the 64 KB window at 0x4000_0000; with nic it holds a NIC
	// instead, registers and packet buffer uncached.
	kind mem.Kind
	nic  bool
	// faults attaches fault.DefaultConfig: UB and CSB pressure, delayed
	// and dropped flush acknowledgements and bus NACKs, each drawn per
	// attempt.
	faults bool
	// intrEvery posts a timer interrupt every intrEvery cycles.
	intrEvery uint64
	// cycles runs a never-halting guest for exactly this many cycles;
	// zero runs to HALT and drains.
	cycles uint64
}

func exampleSource(t *testing.T, file string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "asm", file))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// effortLine formats a run's line of the effort golden: the machine's
// sim/effort counts and its cycles.
func effortLine(name string, m *Machine) string {
	e := m.Effort()
	return fmt.Sprintf("%s cycles=%d full_ticks=%d coasted_cycles=%d asleep_cycles=%d\n",
		name, m.Cycle(), e.FullTicks, e.CoastedCycles, e.AsleepCycles)
}

// stepsLine formats a line of the effort golden's steps section: the
// steps a run driven by Run and Drain took, with its cycles and full
// ticks.
func stepsLine(name string, m *Machine) string {
	e := m.Effort()
	return fmt.Sprintf("%s run: cycles=%d full_ticks=%d steps=%d\n", name, m.Cycle(), e.FullTicks, e.Steps)
}

// machine builds r's machine, loaded and warm.
func (r timedRun) machine(t *testing.T) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	if r.cfg != nil {
		r.cfg(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.nic {
		nic := device.NewNIC(device.DefaultConfig(), nicBase)
		if err := m.AddNIC(nic); err != nil {
			t.Fatal(err)
		}
		m.MapRange(nicBase, device.RegionSize, mem.KindUncached)
	} else {
		m.MapRange(0x4000_0000, 1<<16, r.kind)
	}
	if r.faults {
		if _, err := m.AttachFaults(fault.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}
	p, err := m.LoadSource(r.name, r.src)
	if err != nil {
		t.Fatal(err)
	}
	m.WarmProgram(p)
	return m
}

// attachIntr posts r's timer interrupts.
func (r timedRun) attachIntr(t *testing.T, m *Machine) {
	t.Helper()
	if r.intrEvery != 0 {
		if err := m.AttachPeriodic(r.intrEvery, func(uint64) {
			m.CPU.Interrupt(uint64(isa.CauseTimer))
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// lines runs r and returns its timing and effort golden lines.
func (r timedRun) lines(t *testing.T) (timing, effort string) {
	t.Helper()
	m := r.machine(t)
	th := attachTimingHash(m)
	r.attachIntr(t, m)
	tick := func() {
		m.Tick()
		if err := m.CPU.CheckQueues(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
	}
	if r.cycles != 0 {
		for i := uint64(0); i < r.cycles; i++ {
			tick()
		}
		if m.CPU.Halted() {
			t.Fatalf("%s: halted: %v", r.name, m.CPU.Err())
		}
	} else {
		// Machine.Run and Machine.Drain, one checked Tick at a time.
		for !m.CPU.Halted() {
			if m.Cycle() >= 10_000_000 {
				t.Fatalf("%s: no HALT in %d cycles", r.name, m.Cycle())
			}
			tick()
		}
		if err := m.CPU.Err(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		for start := m.Cycle(); !m.Settled(); {
			if m.Cycle()-start >= 1_000_000 {
				t.Fatalf("%s: drain did not complete", r.name)
			}
			tick()
		}
	}
	return th.line(t, r.name, m), effortLine(r.name, m)
}

// steps runs r through Machine.Run and Machine.Drain, which jump through
// quiet stretches, and returns its steps line. The run must cover the
// cycles and full ticks of r's per-cycle run (effort).
func (r timedRun) steps(t *testing.T, effort string) string {
	t.Helper()
	m := r.machine(t)
	r.attachIntr(t, m)
	if r.cycles != 0 {
		if err := m.Run(r.cycles); err == nil || m.CPU.Halted() {
			t.Fatalf("%s: Run(%d) = %v, want the cycle limit", r.name, r.cycles, err)
		}
	} else {
		if err := m.Run(10_000_000); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if err := m.Drain(1_000_000); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
	}
	if got := effortLine(r.name, m); got != effort {
		t.Errorf("%s: Run and Drain's effort\n%sdiffers from the per-cycle run's\n%s", r.name, got, effort)
	}
	return stepsLine(r.name, m)
}

// ringTraffic is the cluster ring's traffic guest on one node: send a word
// (an uncached store, a membar, a descriptor push), poll the NIC's sent
// counter with uncached loads, drain the receive queue, repeat.
const ringTraffic = `
	.equ NICREG, 0x40000000
	.equ PKTBUF, 0x40001000
	set NICREG, %o0
	set PKTBUF, %o1
	set 8, %g4
	sll %g4, 48, %g4
	clr %l0
	set 0x5A, %g6
loop:	stx %g6, [%o1]
	membar
	stx %g4, [%o0]
	inc %l0
sent:	ldx [%o0+0x10], %g1
	srl %g1, 32, %g1
	cmp %g1, %l0
	bl sent
drain:	ldx [%o0+0x28], %g1
	tst %g1
	bz out
	ldx [%o0+0x20], %g2
	ba drain
out:	ba loop
`

// intrStream wraps a store stream in an interrupt-enabled program whose
// IVEC handler counts the interrupt and returns with iret; the stream
// runs eight times over.
func intrStream(body string) string {
	return `
	set handler, %g7
	wrpr %g7, %ivec
	mov 1, %g7
	wrpr %g7, %status
	mov 201, %g1
	movr2f %g1, %f0
	set 8, %g3
pass:
	set 0x40000000, %o1
	set 64, %g2
loop:
` + body + `
	add %o1, 64, %o1
	subcc %g2, 1, %g2
	bnz loop
	subcc %g3, 1, %g3
	bnz pass
	membar
	halt
handler:
	add %g5, 1, %g5
	iret
`
}

const (
	// lineStores writes the 64-byte line at %o1 with eight doubleword
	// stores; csbLine gathers them in the CSB and flushes, retrying
	// until the flush succeeds.
	lineStores = `
	std %f0, [%o1]
	std %f0, [%o1+8]
	std %f0, [%o1+16]
	std %f0, [%o1+24]
	std %f0, [%o1+32]
	std %f0, [%o1+40]
	std %f0, [%o1+48]
	std %f0, [%o1+56]`
	csbLine = `
RETRY:
	set 8, %l4` + lineStores + `
	swap [%o1], %l4
	cmp %l4, 8
	bnz RETRY`
)

// csbConflict gathers 64 lines through the CSB; the first attempt at each
// line ends with a store to the next line, which resets the buffer, so
// that attempt's flush fails and the sequence retries.
const csbConflict = `
	set 0x40000000, %o1
	mov 201, %g1
	movr2f %g1, %f0
	set 64, %g2
loop:
	clr %g3
RETRY:
	set 8, %l4` + lineStores + `
	tst %g3
	bnz flush
	stx %g1, [%o1+64]
	mov 1, %g3
flush:
	swap [%o1], %l4
	cmp %l4, 8
	bnz RETRY
	add %o1, 64, %o1
	subcc %g2, 1, %g2
	bnz loop
	membar
	halt
`

// uncachedPoll stores a counter to uncached space and polls it back with
// an uncached load, so the core sleeps at retire on a load in flight on
// the bus behind a store still in the uncached buffer.
const uncachedPoll = `
	set 0x40000000, %o1
	set 400, %g2
loop:
	stx %g2, [%o1]
	ldx [%o1], %g1
	add %g3, %g1, %g3
	ldx [%o1+8], %g1
	add %g3, %g1, %g3
	subcc %g2, 1, %g2
	bnz loop
	halt
`

// membarHeavy separates short uncached store runs and one cached store
// with MEMBARs, so the core sleeps on barriers waiting for the uncached
// buffer, the bus and the cache write buffer to drain.
const membarHeavy = `
	set 0x40000000, %o1
	set scratch, %o2
	set 300, %g2
loop:
	stx %g2, [%o1]
	membar
	stx %g2, [%o1+8]
	stx %g2, [%o1+16]
	stx %g2, [%o2]
	membar
	add %o1, 32, %o1
	subcc %g2, 1, %g2
	bnz loop
	membar
	halt
	.align 64
scratch:
	.space 64
`

// splitBusAck is a split 16-byte bus with a turnaround cycle and a
// selective-flow-control acknowledgement delay between ordered
// transactions (figures 3g-3i and 4c-4e).
func splitBusAck(c *Config) {
	c.Bus.Model = bus.Split
	c.Bus.WidthBytes = 16
	c.Bus.Turnaround = 1
	c.Bus.AckDelay = 5
}

// TestRetireTimingGolden pins the issue, completion and retire cycle of
// every instruction, and the final machine statistics, in the
// differential programs, in the §4.3.1 store streams through the CSB and
// through uncached space, and in runs built to stall the core at retire
// and release it at every edge: both streams
// under fault injection (pressure and NACKs drawn per attempt), the ring
// traffic guest polling a NIC with uncached loads and membars, both
// streams taking a timer interrupt every 997 cycles, and a CSB sequence
// whose flush fails on a conflicting store and retries. It adds runs at
// the edges of the machine's quiet time: both streams at bus ratio 3 and
// on a split bus with turnaround and acknowledgement delay, an uncached
// load polling loop, a MEMBAR-heavy sequence, the double-buffered CSB
// and a 12-cycle conditional-flush latency, which the core counts down
// at retire.
// Scheduler
// optimizations must leave it byte-identical.
// The effort golden appends a steps section: the steps each run takes
// when Run and Drain drive it (the differential programs already run
// that way), which must reach the same cycles and full ticks.
// Refresh with: go test ./internal/sim -run TestRetireTimingGolden -update
func TestRetireTimingGolden(t *testing.T) {
	var got, effort, steps strings.Builder
	for seed := 0; seed < 60; seed++ {
		var th *timingHash
		m := runBoth(t, DefaultConfig(), int64(seed), generate(int64(seed), 0), func(m *Machine) {
			th = attachTimingHash(m)
		})
		name := fmt.Sprintf("seed%d", seed)
		got.WriteString(th.line(t, name, m))
		effort.WriteString(effortLine(name, m))
		steps.WriteString(stepsLine(name, m))
	}
	csb, unc := exampleSource(t, "csb_stores.s"), exampleSource(t, "uncached_stores.s")
	for _, r := range []timedRun{
		{name: "csb_stores.s", src: csb, kind: mem.KindCombining},
		{name: "uncached_stores.s", src: unc, kind: mem.KindUncached},
		{name: "csb_stores.s+faults", src: csb, kind: mem.KindCombining, faults: true},
		{name: "uncached_stores.s+faults", src: unc, kind: mem.KindUncached, faults: true},
		{name: "ring_traffic", src: ringTraffic, nic: true, cycles: 200_000},
		{name: "csb_intr997", src: intrStream(csbLine), kind: mem.KindCombining, intrEvery: 997},
		{name: "uncached_intr997", src: intrStream(lineStores), kind: mem.KindUncached, intrEvery: 997},
		{name: "csb_conflict", src: csbConflict, kind: mem.KindCombining},
		{name: "csb_stores.s@ratio3", src: csb, kind: mem.KindCombining, cfg: func(c *Config) { c.Ratio = 3 }},
		{name: "uncached_stores.s@ratio3", src: unc, kind: mem.KindUncached, cfg: func(c *Config) { c.Ratio = 3 }},
		{name: "csb_stores.s@split", src: csb, kind: mem.KindCombining, cfg: splitBusAck},
		{name: "uncached_stores.s@split", src: unc, kind: mem.KindUncached, cfg: splitBusAck},
		{name: "uncached_poll", src: uncachedPoll, kind: mem.KindUncached},
		{name: "membar_heavy", src: membarHeavy, kind: mem.KindUncached},
		{name: "csb_stores.s@double", src: csb, kind: mem.KindCombining, cfg: func(c *Config) { c.CSB.DoubleBuffered = true }},
		{name: "csb_stores.s@flushlat12", src: csb, kind: mem.KindCombining, cfg: func(c *Config) { c.CPU.CSBLatency = 12 }},
	} {
		timing, eff := r.lines(t)
		got.WriteString(timing)
		effort.WriteString(eff)
		steps.WriteString(r.steps(t, eff))
	}
	checkGolden(t, "retire timing", filepath.Join("testdata", "retire_timing.golden"), got.String())
	checkGolden(t, "simulator effort", filepath.Join("testdata", "effort.golden"), effort.String()+steps.String())
}

// checkGolden compares got with the golden file, rewriting it first
// under -update.
func checkGolden(t *testing.T, what, golden, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from %s (refresh with -update)\ngot:\n%swant:\n%s",
			what, golden, got, want)
	}
}
