package sim

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"csbsim/internal/asm"
	"csbsim/internal/device"
	"csbsim/internal/emu"
	"csbsim/internal/fault"
	"csbsim/internal/isa"
	"csbsim/internal/mem"
)

// Robustness acceptance tests: the fault schedule is bit-deterministic
// per seed (report included), recovery under injected faults converges
// to the fault-free architectural state, the watchdog catches livelock
// with a usable dump, and out-of-range device accesses fail the run with
// a typed error instead of a panic.

const robustCombBase = 0x4100_0000
const robustNICBase = 0x4000_0000

// robustCSBGuest is the §3.2 listing shape: store a line through the
// CSB, conditional-flush, retry on failure.
const robustCSBGuest = `
	set 0x41000000, %o1
	set 12345, %g1
	movr2f %g1, %f0
RETRY:
	set 8, %l4
	std %f0, [%o1]
	std %f0, [%o1+8]
	std %f0, [%o1+16]
	std %f0, [%o1+24]
	std %f0, [%o1+32]
	std %f0, [%o1+40]
	std %f0, [%o1+48]
	std %f0, [%o1+56]
	swap [%o1], %l4
	cmp %l4, 8
	bnz RETRY
	membar
	halt
`

// robustNICGuest drives the NIC with the full recovery protocol (poll
// the full bit, detect dropped pushes via the drop counter, wait for the
// sent counter before reusing the buffer) and scrubs timing-dependent
// registers before halting.
const robustNICGuest = `
	set 0x40001000, %o1     ! packet buffer (combining)
	set 0x40000000, %o0     ! registers (uncached)
	set 0xffff, %o2
	mov 0, %o3              ! packets that must be on the wire
	mov 2, %g3              ! messages
	mov 0xC0, %g4
msg:
fill:
	set 8, %l4
	stx %g4, [%o1]
	stx %g4, [%o1+8]
	stx %g4, [%o1+16]
	stx %g4, [%o1+24]
	stx %g4, [%o1+32]
	stx %g4, [%o1+40]
	stx %g4, [%o1+48]
	stx %g4, [%o1+56]
	swap [%o1], %l4
	cmp %l4, 8
	bnz fill
push:
	ldx [%o0+16], %g5
	and %g5, 2, %g6
	cmp %g6, 0
	bnz push
	srl %g5, 16, %l5
	and %l5, %o2, %l5
	set 64, %g7
	sll %g7, 48, %g7
	stx %g7, [%o0]
	membar
	ldx [%o0+16], %g5
	srl %g5, 16, %l6
	and %l6, %o2, %l6
	cmp %l5, %l6
	bnz push
	add %o3, 1, %o3
sent:
	ldx [%o0+16], %g5
	srl %g5, 32, %g6
	cmp %g6, %o3
	bl sent
	add %g4, 1, %g4
	subcc %g3, 1, %g3
	bnz msg
	membar
	mov %g0, %g5
	mov %g0, %g6
	mov %g0, %l5
	mov %g0, %l6
	halt
`

// newFaultedNICMachine builds a machine with a NIC and the fault
// injector attached, loaded with the NIC recovery guest.
func newFaultedNICMachine(t *testing.T, cfg fault.Config) (*Machine, *device.NIC) {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nic := device.NewNIC(device.DefaultConfig(), robustNICBase)
	if err := m.AddDevice(robustNICBase, device.RegionSize, "nic", nic, nic); err != nil {
		t.Fatal(err)
	}
	m.MapRange(robustNICBase, device.PacketBufBase, mem.KindUncached)
	m.MapRange(robustNICBase+device.PacketBufBase, 0x1000, mem.KindCombining)
	if _, err := m.AttachFaults(cfg); err != nil {
		t.Fatal(err)
	}
	if err := m.SetWatchdog(1_000_000); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadSource("nic.s", robustNICGuest); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(50_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := m.Drain(1_000_000); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return m, nic
}

// TestFaultedRunByteIdenticalPerSeed is the determinism acceptance
// criterion: the same seed and configuration reproduce a faulted run
// bit-identically — the rendered report and the full JSON statistics
// agree byte for byte — while a different seed yields a different
// schedule.
func TestFaultedRunByteIdenticalPerSeed(t *testing.T) {
	cfg := fault.DefaultConfig()
	cfg.Seed = 3

	snapshot := func(cfg fault.Config) (string, []byte) {
		m, _ := newFaultedNICMachine(t, cfg)
		s := m.Stats()
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return s.Report(), data
	}

	rep1, js1 := snapshot(cfg)
	rep2, js2 := snapshot(cfg)
	if rep1 != rep2 {
		t.Errorf("same seed, different reports:\n--- run 1 ---\n%s--- run 2 ---\n%s", rep1, rep2)
	}
	if string(js1) != string(js2) {
		t.Errorf("same seed, different JSON stats:\n%s\nvs\n%s", js1, js2)
	}
	if !strings.Contains(rep1, "faults:") {
		t.Errorf("report misses the fault line:\n%s", rep1)
	}

	cfg.Seed = 4
	_, js3 := snapshot(cfg)
	if string(js1) == string(js3) {
		t.Error("seeds 3 and 4 produced identical runs; the seed is not reaching the schedule")
	}
}

// TestFaultRecoveryMatchesEmulator sweeps seeds over the CSB retry guest
// with all flush fault classes turned up and checks the machine ends in
// exactly the architectural state of a fault-free emulator run.
func TestFaultRecoveryMatchesEmulator(t *testing.T) {
	prog, err := asm.Assemble("csb.s", robustCSBGuest)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := emu.New(prog, emu.WithCombining(robustCombBase, 1<<16))
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Run(); err != nil {
		t.Fatal(err)
	}

	cfg := fault.DefaultConfig()
	cfg.FlushDrop = 256
	cfg.CSBPressure = 256
	cfg.FlushDelay = 128
	cfg.BusNack = 128

	var injected uint64
	for seed := uint64(1); seed <= 8; seed++ {
		cfg.Seed = seed
		m, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		m.MapRange(robustCombBase, 1<<16, mem.KindCombining)
		inj, err := m.AttachFaults(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetWatchdog(1_000_000); err != nil {
			t.Fatal(err)
		}
		if err := m.Load(prog); err != nil {
			t.Fatal(err)
		}
		checkQueuesEveryTick(t, m)
		if err := m.Run(50_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := m.Drain(1_000_000); err != nil {
			t.Fatalf("seed %d: drain: %v", seed, err)
		}
		injected += inj.Stats().Total()

		st := m.CPU.State()
		for r := isa.Reg(1); r < isa.NumRegs; r++ {
			if st.R[r] != oracle.R[r] {
				t.Fatalf("seed %d: %s = %#x, oracle %#x", seed, isa.RegName(r), st.R[r], oracle.R[r])
			}
		}
		if st.CC != oracle.CC {
			t.Fatalf("seed %d: CC = %+v, oracle %+v", seed, st.CC, oracle.CC)
		}
		for off := uint64(0); off < 64; off += 8 {
			mv := m.RAM.ReadUint(robustCombBase+off, 8)
			ev := oracle.Mem.ReadUint(robustCombBase+off, 8)
			if mv != ev {
				t.Fatalf("seed %d: mem[%#x] = %#x, oracle %#x", seed, robustCombBase+off, mv, ev)
			}
		}
	}
	if injected == 0 {
		t.Error("no faults injected across 8 seeds; the sweep exercised nothing")
	}
}

// TestWatchdogTripsOnWedgedGuest wedges the machine (every bus
// transaction NACKed, so the uncached store never drains and the membar
// stalls retire forever) and checks the watchdog aborts the run with a
// diagnostic dump naming the culprits.
func TestWatchdogTripsOnWedgedGuest(t *testing.T) {
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
	p, err := m.LoadSource("wedge.s", `
	set 0x48000000, %o0
	mov 1, %g1
	stx %g1, [%o0]
	membar
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m.WarmProgram(p)

	runErr := m.Run(1_000_000)
	var wd *WatchdogError
	if !errors.As(runErr, &wd) {
		t.Fatalf("run ended with %v, want *WatchdogError", runErr)
	}
	if wd.Window != 5000 {
		t.Errorf("window = %d, want 5000", wd.Window)
	}
	if wd.Retired == 0 {
		t.Error("the guest should have retired its prologue before wedging")
	}
	for _, want := range []string{
		"cpi stack", "membar", "uncached buffer", "pipeline", "bus nacks",
	} {
		if !strings.Contains(wd.Dump, want) {
			t.Errorf("dump misses %q:\n%s", want, wd.Dump)
		}
	}
}

// TestWatchdogQuietOnHealthyRun arms the watchdog over a faulted but
// recovering run: it must not trip.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.MapRange(robustCombBase, 1<<16, mem.KindCombining)
	if _, err := m.AttachFaults(fault.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if err := m.SetWatchdog(10_000); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadSource("csb.s", robustCSBGuest); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1_000_000); err != nil {
		t.Fatalf("healthy run tripped something: %v", err)
	}
	if m.CPU.Stats().Retired == 0 {
		t.Error("no instructions retired")
	}
}

// TestWatchdogArmingErrors covers the arming contract.
func TestWatchdogArmingErrors(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetWatchdog(0); err == nil {
		t.Error("window 0 must be rejected")
	}
	if err := m.SetWatchdog(100); err != nil {
		t.Fatal(err)
	}
	if err := m.SetWatchdog(100); err == nil {
		t.Error("re-arming must be rejected")
	}
}

// TestBadDescriptorFailsRunTyped is the regression test for the old
// slice-bounds panic: a transmit descriptor pointing outside the packet
// buffer must surface from Run as a *device.AddrError — even though the
// guest halts cleanly right after provoking it.
func TestBadDescriptorFailsRunTyped(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nic := device.NewNIC(device.DefaultConfig(), robustNICBase)
	if err := m.AddDevice(robustNICBase, device.RegionSize, "nic", nic, nic); err != nil {
		t.Fatal(err)
	}
	m.MapRange(robustNICBase, device.PacketBufBase, mem.KindUncached)
	// Descriptor: offset 0x8000 (outside the 0x1000-byte packet buffer),
	// length 64. This used to crash the whole simulator at transmit time.
	if _, err := m.LoadSource("bad.s", `
	set 0x40000000, %o0
	set 0x8000, %g1
	set 64, %g2
	sll %g2, 48, %g2
	or %g1, %g2, %g1
	stx %g1, [%o0]
	membar
	halt
`); err != nil {
		t.Fatal(err)
	}

	runErr := m.Run(1_000_000)
	if runErr == nil {
		t.Fatal("run succeeded; want a typed device error")
	}
	var ae *device.AddrError
	if !errors.As(runErr, &ae) {
		t.Fatalf("err = %v, want *device.AddrError", runErr)
	}
	if ae.Op != "tx-descriptor" || ae.Addr != 0x8000 {
		t.Errorf("AddrError = %+v", ae)
	}
}

// TestAttachFaultsTwiceRejected covers the attach contract.
func TestAttachFaultsTwiceRejected(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AttachFaults(fault.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AttachFaults(fault.DefaultConfig()); err == nil {
		t.Error("second AttachFaults must be rejected")
	}
}
