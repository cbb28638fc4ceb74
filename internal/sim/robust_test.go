package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"csbsim/internal/asm"
	"csbsim/internal/device"
	"csbsim/internal/emu"
	"csbsim/internal/fault"
	"csbsim/internal/mem"
)

// Robustness acceptance tests: the fault schedule is bit-deterministic
// per seed (report included), recovery under injected faults converges
// to the fault-free architectural state, the watchdog catches livelock
// with a usable dump, and out-of-range device accesses fail the run with
// a typed error instead of a panic.

// combBase is plain combining space, with no device behind it.
const combBase = 0x4100_0000

// The recovery guests retry through every fault the injector can
// inject, so a faulted run must end in the state of a fault-free run on
// the emulator: "software retries on failure" (§3.2).

// quickstartGuest is the paper's §3.2 listing: stores complete in any
// order, the swap is the conditional flush, software retries on failure.
const quickstartGuest = `
	set 0x41000000, %o1
	set 12345, %g1
	movr2f %g1, %f0
	set 67890, %g1
	movr2f %g1, %f10
	movr2f %g1, %f12
RETRY:
	set 8, %l4              ! expected value
	std %f0,  [%o1]
	std %f10, [%o1+40]
	std %f0,  [%o1+16]
	std %f0,  [%o1+24]
	std %f0,  [%o1+32]
	std %f0,  [%o1+8]
	std %f0,  [%o1+56]
	std %f12, [%o1+48]
	swap [%o1], %l4         ! conditional flush
	cmp %l4, 8
	bnz RETRY               ! retry on failure
	membar
	halt
`

// multilineGuest writes four consecutive CSB lines (dword j of line i
// holds (i<<8)|j), retrying each flush after a short backoff spin: the
// shape of a driver streaming a message through combining space.
const multilineGuest = `
	set 0x41000000, %o1     ! current line
	mov 4, %g3              ! lines remaining
	mov 0, %g4              ! line index
	mov 0, %l5              ! backoff counter
line:
retry:
	set 8, %l4
	sll %g4, 8, %g6
	or %g6, 0, %g7
	stx %g7, [%o1]
	or %g6, 1, %g7
	stx %g7, [%o1+8]
	or %g6, 2, %g7
	stx %g7, [%o1+16]
	or %g6, 3, %g7
	stx %g7, [%o1+24]
	or %g6, 4, %g7
	stx %g7, [%o1+32]
	or %g6, 5, %g7
	stx %g7, [%o1+40]
	or %g6, 6, %g7
	stx %g7, [%o1+48]
	or %g6, 7, %g7
	stx %g7, [%o1+56]
	swap [%o1], %l4         ! conditional flush
	cmp %l4, 8
	bz lineok
	mov 16, %l5             ! failed: back off, then re-run the sequence
spin:
	subcc %l5, 1, %l5
	bnz spin
	ba retry
lineok:
	add %o1, 64, %o1
	add %g4, 1, %g4
	subcc %g3, 1, %g3
	bnz line
	membar
	halt
`

// nicsendGuest sends three 64-byte packets (every dword of packet i is
// 0xA0+i) through the NIC's packet buffer (CSB line bursts) and
// descriptor FIFO, using the full recovery protocol: poll the FIFO-full
// bit before pushing, detect a dropped push by re-reading the drop
// counter, and wait for the packets-sent counter before reusing the
// buffer. Timing-dependent registers are scrubbed before halt so the
// final state is comparable with the emulator.
const nicsendGuest = `
	.equ NICREG, 0x40000000
	.equ PKTBUF, 0x40001000
	set PKTBUF, %o1
	set NICREG, %o0
	set 0xffff, %o2         ! drop-counter mask
	mov 0, %o3              ! packets that must be on the wire
	mov 3, %g3              ! messages to send
	mov 0xA0, %g4           ! payload dword for this message
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
	swap [%o1], %l4         ! atomic line burst into the packet buffer
	cmp %l4, 8
	bnz fill                ! flush failed: re-run the store sequence
push:
	ldx [%o0+16], %g5       ! status register
	and %g5, 2, %g6
	cmp %g6, 0
	bnz push                ! FIFO full or backpressured: keep polling
	srl %g5, 16, %l5
	and %l5, %o2, %l5       ! drop counter before the push
	set 64, %g7
	sll %g7, 48, %g7        ! descriptor: offset 0, length 64
	stx %g7, [%o0]          ! one store pushes it
	membar                  ! push reaches the device before the re-read
	ldx [%o0+16], %g5
	srl %g5, 16, %l6
	and %l6, %o2, %l6       ! drop counter after
	cmp %l5, %l6
	bnz push                ! counter advanced: push was dropped, retry
	add %o3, 1, %o3
sent:
	ldx [%o0+16], %g5
	srl %g5, 32, %g6        ! packets sent so far
	cmp %g6, %o3
	bl sent                 ! buffer is live until the packet is on the wire
	add %g4, 1, %g4
	subcc %g3, 1, %g3
	bnz msg
	membar
	mov %g0, %g5            ! scrub timing-dependent status reads
	mov %g0, %g6
	mov %g0, %l5
	mov %g0, %l6
	halt
`

// recoveryGuest is one guest of the fault-recovery oracle. Besides its
// registers and console, a run is compared on the first ram bytes of
// combining space at combBase, or, for a guest with packets != 0, on
// the packets it sent through a NIC at nicBase.
type recoveryGuest struct {
	name    string
	src     string
	ram     uint64
	packets int
}

var recoveryGuests = []recoveryGuest{
	{name: "quickstart", src: quickstartGuest, ram: 64},
	{name: "multiline", src: multilineGuest, ram: 256},
	{name: "nicsend", src: nicsendGuest, packets: 3},
}

// recoveryWatchdog is the watchdog window of every recovery run.
const recoveryWatchdog = 1_000_000

// machine builds a machine with g's address space, the fault injector at
// cfg and the watchdog attached, and g's program loaded. The NIC is nil
// for a guest that sends no packets.
func (g recoveryGuest) machine(t *testing.T, prog *asm.Program, cfg fault.Config) (*Machine, *device.NIC) {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m, g.setup(t, m, prog, cfg)
}

// setup gives a new or reset machine g's address space, NIC, fault
// injector at cfg and watchdog, and loads g's program. The NIC is nil
// for a guest that sends no packets.
func (g recoveryGuest) setup(t *testing.T, m *Machine, prog *asm.Program, cfg fault.Config) *device.NIC {
	t.Helper()
	var nic *device.NIC
	if g.packets != 0 {
		nic = addNIC(t, m)
	} else {
		m.MapRange(combBase, 1<<16, mem.KindCombining)
	}
	if _, err := m.AttachFaults(cfg); err != nil {
		t.Fatal(err)
	}
	if err := m.SetWatchdog(recoveryWatchdog); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	return nic
}

// oracle assembles g and runs it fault-free on the emulator. Its
// combining space flushes always succeed, and its NIC is ideal: the
// status word, which the guest never writes, reads never busy, never
// full, no drops, and more packets sent than any guest waits for.
func (g recoveryGuest) oracle(tb testing.TB) (*asm.Program, *emu.Emulator) {
	tb.Helper()
	prog, err := asm.Assemble(g.name+".s", g.src)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := emu.New(prog)
	if err != nil {
		tb.Fatal(err)
	}
	if g.packets != 0 {
		e.MarkCombining(nicBase+device.PacketBufBase, device.PacketBufSize)
		e.Mem.WriteUint(nicBase+device.RegStatus, 8, 0x7FFFFFFF<<32)
	} else {
		e.MarkCombining(combBase, 1<<16)
	}
	if err := e.Run(); err != nil {
		tb.Fatalf("%s: oracle: %v", g.name, err)
	}
	return prog, e
}

// check compares what a finished run of g leaves behind with the
// oracle: registers, FP registers, condition codes, console, the
// combining space g wrote and the payloads of the packets it sent.
func (g recoveryGuest) check(t *testing.T, m *Machine, nic *device.NIC, e *emu.Emulator) {
	t.Helper()
	checkArch(t, m, e)
	if got, want := m.Console(), string(e.Console); got != want {
		t.Errorf("console = %q, oracle %q", got, want)
	}
	for off := uint64(0); off < g.ram; off += 8 {
		if mv, ev := m.RAM.ReadUint(combBase+off, 8), e.Mem.ReadUint(combBase+off, 8); mv != ev {
			t.Errorf("mem[%#x] = %#x, oracle %#x", combBase+off, mv, ev)
		}
	}
	if g.packets == 0 {
		return
	}
	got := nic.Packets()
	if len(got) != g.packets {
		t.Fatalf("%d packets on the wire, want %d (dropped pushes: %d)", len(got), g.packets, nic.Dropped())
	}
	for i, p := range got {
		want := bytes.Repeat([]byte{byte(0xA0 + i), 0, 0, 0, 0, 0, 0, 0}, 8)
		if !bytes.Equal(p.Data, want) {
			t.Errorf("packet %d payload %x, want %x", i, p.Data, want)
		}
	}
}

// runChecked runs m to HALT as Run does and checks the CPU's scheduling
// queues (cpu.CPU.CheckQueues) after every step: each Run call ticks
// once or jumps through one open quiet stretch, and keeps the watchdog's
// countdown. A periodic hook would cut every quiet stretch short; this
// leaves coasting and jumping on. It returns Run's result, or the cycle
// limit's error once maxCycles have passed.
func runChecked(t *testing.T, m *Machine, maxCycles uint64) error {
	t.Helper()
	for {
		n := uint64(1)
		if m.coastEnd > m.cycle {
			n = m.coastEnd - m.cycle
		}
		err := m.Run(n)
		if qerr := m.CPU.CheckQueues(); qerr != nil {
			t.Fatalf("cycle %d: %v", m.cycle, qerr)
		}
		// With the core running, no device error and no watchdog trip,
		// err is only Run's own cycle limit.
		var wd *WatchdogError
		if m.CPU.Halted() || m.deviceErr() != nil || errors.As(err, &wd) {
			return err
		}
		if m.cycle >= maxCycles {
			return fmt.Errorf("cycle limit %d reached at pc %#x", maxCycles, m.CPU.State().PC)
		}
	}
}

// TestFaultedRunByteIdenticalPerSeed is the determinism acceptance
// criterion: the same seed and configuration reproduce a faulted run
// bit-identically — the rendered report and the full JSON statistics
// agree byte for byte — while a different seed yields a different
// schedule.
func TestFaultedRunByteIdenticalPerSeed(t *testing.T) {
	g := recoveryGuests[2]
	prog, oracle := g.oracle(t)
	cfg := fault.DefaultConfig()
	cfg.Seed = 3

	snapshot := func(cfg fault.Config) (string, []byte) {
		m, nic := g.machine(t, prog, cfg)
		if err := m.Run(50_000_000); err != nil {
			t.Fatalf("run: %v", err)
		}
		if err := m.Drain(1_000_000); err != nil {
			t.Fatalf("drain: %v", err)
		}
		g.check(t, m, nic, oracle)
		s := m.Stats()
		if s.Faults.Total() == 0 {
			t.Fatalf("seed %d injected no fault", cfg.Seed)
		}
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

// The specs of FuzzFaultRecovery's committed corpus besides CI's
// "default" mix: a flush-fault-heavy mix and a cranked one. Every run at
// a committed spec must converge.
const (
	flushHeavySpec = "default,flushdrop=256,csbpressure=256,flushdelay=128,busnack=128"
	crankedSpec    = "default,csbpressure=256,flushdrop=256"
)

// recoveryInput is one FuzzFaultRecovery input.
type recoveryInput struct {
	guest uint8
	seed  uint64
	spec  string
}

// recoveryCorpus is FuzzFaultRecovery's corpus: every guest under the
// default mix and the cranked one, and the quickstart guest under the
// flush-heavy one.
func recoveryCorpus() []recoveryInput {
	var in []recoveryInput
	for g := range recoveryGuests {
		for seed := uint64(1); seed <= 25; seed++ {
			in = append(in, recoveryInput{uint8(g), seed, "default"})
		}
		for seed := uint64(1); seed <= 5; seed++ {
			in = append(in, recoveryInput{uint8(g), seed, crankedSpec})
		}
	}
	for seed := uint64(1); seed <= 8; seed++ {
		in = append(in, recoveryInput{0, seed, flushHeavySpec})
	}
	return in
}

// FuzzFaultRecovery is the fault-recovery oracle. The recovery guest
// numbered guest (modulo their count) runs with the fault injector at
// spec and seed, and must end in exactly one of two ways: in the state
// of its fault-free emulator run, with the CPI stack summing to the
// cycles, or in a *WatchdogError, which a hostile spec such as
// busnack=1024 may legitimately cause. A spec that does not parse is
// skipped: FuzzParseSpec owns parsing. Replay one input with
// go test -run 'FuzzFaultRecovery/<name>'.
func FuzzFaultRecovery(f *testing.F) {
	for _, in := range recoveryCorpus() {
		f.Add(in.guest, in.seed, in.spec)
	}
	progs := make([]*asm.Program, len(recoveryGuests))
	oracles := make([]*emu.Emulator, len(recoveryGuests))
	for i, g := range recoveryGuests {
		progs[i], oracles[i] = g.oracle(f)
	}
	f.Fuzz(func(t *testing.T, guest uint8, seed uint64, spec string) {
		cfg, err := fault.ParseSpec(spec)
		if err != nil {
			t.Skip(err)
		}
		cfg.Seed = seed
		i := int(guest) % len(recoveryGuests)
		g := recoveryGuests[i]
		m, nic := g.machine(t, progs[i], cfg)
		err = runChecked(t, m, 50_000_000)
		if wd := (*WatchdogError)(nil); errors.As(err, &wd) {
			if spec == "default" || spec == flushHeavySpec || spec == crankedSpec {
				t.Fatalf("%s wedged at committed spec %q seed %d: %v\n%s", g.name, spec, seed, err, wd.Dump)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if err := m.Drain(recoveryWatchdog); err != nil {
			t.Fatalf("%s: drain: %v", g.name, err)
		}
		g.check(t, m, nic, oracles[i])
		s := m.Stats()
		if total := s.CPU.CPI.Total(); total != s.Cycles {
			t.Errorf("%s: CPI stack sums to %d, cycles %d", g.name, total, s.Cycles)
		}
	})
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
	m.MapRange(combBase, 1<<16, mem.KindCombining)
	if _, err := m.AttachFaults(fault.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if err := m.SetWatchdog(10_000); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadSource("quickstart.s", quickstartGuest); err != nil {
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
	nic := device.NewNIC(device.DefaultConfig(), nicBase)
	if err := m.AddNIC(nic); err != nil {
		t.Fatal(err)
	}
	m.MapRange(nicBase, device.PacketBufBase, mem.KindUncached)
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
