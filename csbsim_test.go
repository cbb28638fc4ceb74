package csbsim_test

import (
	"fmt"
	"log"
	"strings"
	"testing"

	"csbsim"
)

// TestPublicAPISurface drives the whole facade: build, map, assemble,
// run, read the pipeline tail, stats.
func TestPublicAPISurface(t *testing.T) {
	m, err := csbsim.NewMachine(csbsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.MapRange(0x4000_0000, 1<<16, csbsim.KindCombining)

	tail := m.AttachPipeline()

	prog, err := csbsim.Assemble("api.s", `
	set 0x40000000, %o1
	mov 9, %g1
	mov 1, %l4
	stx %g1, [%o1]
	swap [%o1], %l4
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.CSB.FlushOK != 1 {
		t.Errorf("flushes = %d", s.CSB.FlushOK)
	}
	insts, _ := tail()
	swapped := false
	for _, in := range insts {
		swapped = swapped || strings.HasPrefix(in.Disasm, "swap")
	}
	if !swapped {
		t.Errorf("pipeline tail of %d instructions did not capture the swap", len(insts))
	}
	if got := m.RAM.ReadUint(0x4000_0000, 8); got != 9 {
		t.Errorf("data = %d", got)
	}
	if rep := s.Report(); !strings.Contains(rep, "csb:") {
		t.Error("report missing CSB section")
	}
}

func TestFigureIDsResolve(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration is slow-ish")
	}
	r, err := csbsim.Figure("5a")
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "5a" || len(r.Series) == 0 {
		t.Errorf("figure = %+v", r)
	}
	table := csbsim.FormatFigure(r)
	if !strings.Contains(table, "CSB") {
		t.Error("table missing CSB series")
	}
	if csv := csbsim.FormatFigureCSV(r); !strings.Contains(csv, "scheme") {
		t.Error("CSV missing header")
	}
	if _, err := csbsim.Figure("nope"); err == nil {
		t.Error("bad figure ID accepted")
	}
}

func TestKernelViaFacade(t *testing.T) {
	m, err := csbsim.NewMachine(csbsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	k := csbsim.NewKernel(m, 1000)
	prog, err := csbsim.Assemble("p.s", `
	mov 42, %o0
	trap 2
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn("p", 1, prog); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.Console(); got != "42" {
		t.Errorf("console = %q", got)
	}
}

func TestNICViaFacade(t *testing.T) {
	m, err := csbsim.NewMachine(csbsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nic := csbsim.NewNIC(csbsim.DefaultNICConfig(), 0x4000_0000)
	if err := m.AddNIC(nic); err != nil {
		t.Fatal(err)
	}
	nic.Deliver(5)
	if nic.RxPending() != 1 {
		t.Error("deliver failed")
	}
}

// ExampleNewMachine runs the smallest possible CSB sequence through the
// public API.
func ExampleNewMachine() {
	m, err := csbsim.NewMachine(csbsim.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	// Stores to combining pages are captured by the conditional store
	// buffer; a swap to them is the conditional flush (paper §3).
	m.MapRange(0x4000_0000, 1<<16, csbsim.KindCombining)
	_, err = m.LoadSource("hello.s", `
	set 0x40000000, %o1
	mov 7, %g1
retry:	mov 2, %l4              ! expected store count
	stx %g1, [%o1]
	stx %g1, [%o1+8]
	swap [%o1], %l4         ! conditional flush
	cmp %l4, 2
	bnz retry               ! (never taken here: single process)
	halt
`)
	if err != nil {
		log.Fatal(err)
	}
	if err := m.Run(1_000_000); err != nil {
		log.Fatal(err)
	}
	if err := m.Drain(100_000); err != nil {
		log.Fatal(err)
	}
	s := m.Stats()
	fmt.Printf("flushes: %d ok, %d failed; bursts: %d\n",
		s.CSB.FlushOK, s.CSB.FlushFail, s.CSB.Bursts)
	// Output: flushes: 1 ok, 0 failed; bursts: 1
}

// ExampleAssemble shows the assembler's SPARC-flavored syntax.
func ExampleAssemble() {
	prog, err := csbsim.Assemble("demo.s", `
	.equ COUNT, 3
	mov COUNT, %g1
loop:	subcc %g1, 1, %g1
	bnz loop
	halt
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d bytes at %#x\n", prog.Size(), prog.Entry)
	// Output: 16 bytes at 0x10000
}
