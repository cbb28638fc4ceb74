package kernel

import (
	"fmt"
	"testing"

	"csbsim/internal/asm"
	"csbsim/internal/mem"
	"csbsim/internal/sim"
)

func newMachine(t *testing.T) *sim.Machine {
	t.Helper()
	m, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustProg(t *testing.T, src string) *asm.Program {
	t.Helper()
	p, err := asm.Assemble("proc.s", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// counterProg counts to n in a register then stores the result at addr.
func counterProg(org uint64, n int, addr uint64) string {
	return fmt.Sprintf(`
	.org %#x
	clr %%g1
	set %d, %%g2
loop:
	add %%g1, 1, %%g1
	cmp %%g1, %%g2
	bl loop
	set %#x, %%o1
	stx %%g1, [%%o1]
	membar
	halt
`, org, n, addr)
}

func TestTwoProcessesTimeshare(t *testing.T) {
	m := newMachine(t)
	k := New(m, 2000)
	p1, err := k.Spawn("a", 1, mustProg(t, counterProg(0x10000, 30000, 0x80000)))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := k.Spawn("b", 2, mustProg(t, counterProg(0x90000, 30000, 0xa0000)))
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if !p1.Finished || !p2.Finished {
		t.Fatal("processes did not finish")
	}
	if got := m.RAM.ReadUint(0x80000, 8); got != 30000 {
		t.Errorf("process a result = %d", got)
	}
	if got := m.RAM.ReadUint(0xa0000, 8); got != 30000 {
		t.Errorf("process b result = %d", got)
	}
	if k.Switches() < 10 {
		t.Errorf("switches = %d, want >= 10 (quantum 2000, long runs)", k.Switches())
	}
	if p1.Cycles == 0 || p2.Cycles == 0 {
		t.Error("per-process cycle accounting missing")
	}
}

func TestDuplicatePIDRejected(t *testing.T) {
	m := newMachine(t)
	k := New(m, 1000)
	prog := mustProg(t, "halt\n")
	if _, err := k.Spawn("a", 1, prog); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn("b", 1, prog); err == nil {
		t.Error("duplicate PID accepted")
	}
}

func TestProcessIsolationViaAddressSpaces(t *testing.T) {
	// Two processes use the same *virtual* address mapped to different
	// physical frames.
	m := newMachine(t)
	k := New(m, 1500)
	src := `
	set 0x200000, %o1
	ldx [%o1], %g1      ! read own private value
	add %g1, 1, %g1
	stx %g1, [%o1]
	membar
	halt
`
	p1, _ := k.Spawn("a", 1, mustProg(t, "\t.org 0x10000\n"+src))
	p2, _ := k.Spawn("b", 2, mustProg(t, "\t.org 0x30000\n"+src))
	// Same VA 0x200000, different PAs.
	p1.Space.MapRange(0x200000, 0x500000, mem.PageSize, mem.KindCached, true)
	p2.Space.MapRange(0x200000, 0x600000, mem.PageSize, mem.KindCached, true)
	m.RAM.WriteUint(0x500000, 8, 100)
	m.RAM.WriteUint(0x600000, 8, 200)
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.RAM.ReadUint(0x500000, 8); got != 101 {
		t.Errorf("process a value = %d, want 101", got)
	}
	if got := m.RAM.ReadUint(0x600000, 8); got != 201 {
		t.Errorf("process b value = %d, want 201", got)
	}
}

// The §3.2 scenario end to end: two processes hammer the same CSB with
// different lines; preemption interrupts sequences mid-flight; the
// conditional flush detects every conflict and software retries; both
// processes' data still lands intact, every line exactly once.
func TestCSBContentionUnderPreemption(t *testing.T) {
	m := newMachine(t)
	k := New(m, 700) // short quantum: preempt mid-sequence often
	csbSeq := func(org, target uint64, lines int) string {
		return fmt.Sprintf(`
	.org %#x
	set %#x, %%o1
	set %d, %%g3          ! line counter
	mov 7, %%g1
	movr2f %%g1, %%f0
nextline:
RETRY:
	set 8, %%l4
	std %%f0, [%%o1]
	std %%f0, [%%o1+8]
	std %%f0, [%%o1+16]
	std %%f0, [%%o1+24]
	std %%f0, [%%o1+32]
	std %%f0, [%%o1+40]
	std %%f0, [%%o1+48]
	std %%f0, [%%o1+56]
	swap [%%o1], %%l4
	cmp %%l4, 8
	bnz RETRY
	add %%o1, 64, %%o1
	subcc %%g3, 1, %%g3
	bnz nextline
	halt
`, org, target, lines)
	}
	const lines = 40
	p1, err := k.Spawn("a", 1, mustProg(t, csbSeq(0x10000, 0x4000_0000, lines)))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := k.Spawn("b", 2, mustProg(t, csbSeq(0x30000, 0x4100_0000, lines)))
	if err != nil {
		t.Fatal(err)
	}
	p1.Space.MapRange(0x4000_0000, 0x4000_0000, 1<<20, mem.KindCombining, true)
	p2.Space.MapRange(0x4100_0000, 0x4100_0000, 1<<20, mem.KindCombining, true)
	// Every preemption flushes the pipeline mid-sequence: the CPU's
	// scheduling queues must track the ROB through each flush.
	if err := m.AttachPeriodic(1, func(uint64) {
		if err := m.CPU.CheckQueues(); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if k.Switches() < 4 {
		t.Fatalf("switches = %d; quantum too long to exercise contention", k.Switches())
	}
	// All data must have landed exactly once per line.
	for i := 0; i < lines; i++ {
		for _, base := range []uint64{0x4000_0000, 0x4100_0000} {
			a := base + uint64(i*64)
			if got := m.RAM.ReadUint(a, 8); got != 7 {
				t.Fatalf("line %#x word 0 = %d, want 7", a, got)
			}
		}
	}
	// Exactly one successful flush (= one burst) per line.
	if s.CSB.FlushOK != 2*lines {
		t.Errorf("successful flushes = %d, want %d", s.CSB.FlushOK, 2*lines)
	}
	if s.CSB.Bursts != 2*lines {
		t.Errorf("bursts = %d, want %d (exactly-once)", s.CSB.Bursts, 2*lines)
	}
	// Preemption must have caused at least one conflict + retry.
	if s.CSB.FlushFail == 0 {
		t.Error("no failed flushes despite preemption — contention not exercised")
	}
	t.Logf("switches=%d flushOK=%d flushFail=%d conflicts=%d",
		k.Switches(), s.CSB.FlushOK, s.CSB.FlushFail, s.CSB.Conflicts)
}

func TestRunWithNoProcesses(t *testing.T) {
	m := newMachine(t)
	k := New(m, 1000)
	if err := k.Run(1000); err == nil {
		t.Error("expected error with no processes")
	}
}

func TestSingleProcessNoPreemptionNeeded(t *testing.T) {
	m := newMachine(t)
	k := New(m, 100) // tiny quantum; single process keeps being re-dispatched
	p, _ := k.Spawn("solo", 3, mustProg(t, counterProg(0x10000, 5000, 0x80000)))
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !p.Finished {
		t.Fatal("process did not finish")
	}
	if got := m.RAM.ReadUint(0x80000, 8); got != 5000 {
		t.Errorf("result = %d", got)
	}
}
