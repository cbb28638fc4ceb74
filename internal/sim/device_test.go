package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"csbsim/internal/device"
	"csbsim/internal/fault"
	"csbsim/internal/mem"
)

const nicBase = 0x4000_0000

func machineWithNIC(t *testing.T) (*Machine, *device.NIC) {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m, addNIC(t, m)
}

// addNIC attaches a NIC at nicBase to m and maps its register page
// uncached and its packet buffer combining.
func addNIC(t *testing.T, m *Machine) *device.NIC {
	t.Helper()
	nic := device.NewNIC(device.DefaultConfig(), nicBase)
	if err := m.AddNIC(nic); err != nil {
		t.Fatal(err)
	}
	m.MapRange(nicBase, device.PacketBufBase, mem.KindUncached)
	m.MapRange(nicBase+device.PacketBufBase, device.PacketBufSize, mem.KindCombining)
	return nic
}

// TestAddNICAttachOrder holds the one-NIC contract: a NIC attached after
// the counter registry, the journey tracer and the fault injector is
// wired to all three exactly as one attached before them, so a faulted,
// traced nicsend run's Stats JSON, counter snapshot included, comes out
// byte-identical either way. A second AddNIC fails and changes nothing.
func TestAddNICAttachOrder(t *testing.T) {
	run := func(nicFirst bool) []byte {
		m, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		nic := device.NewNIC(device.DefaultConfig(), nicBase)
		addNIC := func() {
			if err := m.AddNIC(nic); err != nil {
				t.Fatal(err)
			}
		}
		if nicFirst {
			addNIC()
		}
		m.AttachCounters()
		if _, err := m.AttachJourneys(); err != nil {
			t.Fatal(err)
		}
		if _, err := m.AttachFaults(fault.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		if !nicFirst {
			addNIC()
		}
		m.MapRange(nicBase, device.PacketBufBase, mem.KindUncached)
		m.MapRange(nicBase+device.PacketBufBase, device.PacketBufSize, mem.KindCombining)
		if _, err := m.LoadSource("nicsend.s", nicsendGuest); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		before, err := json.Marshal(m.Stats())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddNIC(device.NewNIC(device.DefaultConfig(), nicBase+device.RegionSize)); err == nil {
			t.Error("second AddNIC succeeded")
		}
		if n := len(m.Router.Regions()); n != 1 {
			t.Errorf("%d router regions after a second AddNIC, want 1", n)
		}
		if after, _ := json.Marshal(m.Stats()); !bytes.Equal(after, before) {
			t.Errorf("second AddNIC changed the machine:\n%s\n%s", before, after)
		}
		s := m.Stats()
		c := s.Counters.Counters
		if c["dev0/packets_sent"] != 3 || c["journey/nic_descriptor/started"] == 0 ||
			s.Faults.DeviceStalls+s.Faults.BackpressureWindows == 0 {
			t.Errorf("NIC not wired to every observer: packets %d, descriptor journeys %d, device faults %d",
				c["dev0/packets_sent"], c["journey/nic_descriptor/started"],
				s.Faults.DeviceStalls+s.Faults.BackpressureWindows)
		}
		return before
	}
	first, last := run(true), run(false)
	if !bytes.Equal(first, last) {
		t.Errorf("Stats differ by attach order:\nNIC first: %s\nNIC last:  %s", first, last)
	}
}

// End-to-end PIO send through the CSB into the NIC, descriptor push, and
// transmission.
func TestEndToEndCSBSend(t *testing.T) {
	m, nic := machineWithNIC(t)
	src := `
	.equ NICREG, 0x40000000
	.equ PKTBUF, 0x40001000
	set PKTBUF, %o1
	set NICREG, %o0
	set 0x55, %g1
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
	set 64, %g4
	sll %g4, 48, %g4
	stx %g4, [%o0]
	membar
	halt
`
	if _, err := m.LoadSource("send.s", src); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(1_000_000); err != nil {
		t.Fatal(err)
	}
	pkts := nic.Packets()
	if len(pkts) != 1 {
		t.Fatalf("packets = %d, want 1", len(pkts))
	}
	if len(pkts[0].Data) != 64 || pkts[0].Data[0] != 0x55 {
		t.Errorf("payload = %d bytes, first %#x", len(pkts[0].Data), pkts[0].Data[0])
	}
	if pkts[0].ViaDMA {
		t.Error("PIO send marked as DMA")
	}
}

// A program drains the RX queue with destructive uncached loads; every
// word must be observed exactly once, in order.
func TestRxDrainProgram(t *testing.T) {
	m, nic := machineWithNIC(t)
	nic.Deliver(100, 200, 300, 400)
	src := `
	.equ NICREG, 0x40000000
	set NICREG, %o0
	set 0x20000, %o2       ! destination buffer
drain:
	ldx [%o0+0x28], %g1    ! RxCount (non-destructive)
	tst %g1
	bz done
	ldx [%o0+0x20], %g2    ! RxPop (destructive!)
	stx %g2, [%o2]
	add %o2, 8, %o2
	ba drain
done:
	membar
	halt
`
	if _, err := m.LoadSource("rx.s", src); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	want := []uint64{100, 200, 300, 400}
	for i, w := range want {
		if got := m.RAM.ReadUint(0x20000+uint64(i*8), 8); got != w {
			t.Errorf("word %d = %d, want %d", i, got, w)
		}
	}
	if nic.RxPops() != 4 {
		t.Errorf("pops = %d, want exactly 4 (one per word)", nic.RxPops())
	}
	if nic.RxPending() != 0 {
		t.Errorf("queue not drained: %d left", nic.RxPending())
	}
}

// The paper's exactly-once requirement for I/O loads: a destructive load
// on a mispredicted path must never reach the device. The branch below is
// taken but a cold 2-bit predictor guesses not-taken, so the shadow of
// the branch — which contains an RxPop load — is fetched and squashed.
func TestWrongPathNeverPopsRxQueue(t *testing.T) {
	m, nic := machineWithNIC(t)
	nic.Deliver(111, 222)
	src := `
	.equ NICREG, 0x40000000
	set NICREG, %o0
	mov 1, %g1
	cmp %g1, 1
	bz skip                 ! taken; predicted not-taken on first sight
	ldx [%o0+0x20], %g2     ! wrong path: destructive RxPop
	ldx [%o0+0x20], %g3     ! wrong path: another one
skip:
	membar
	halt
`
	if _, err := m.LoadSource("spec.s", src); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Stats().CPU.Mispredicts == 0 {
		t.Fatal("test premise broken: no misprediction")
	}
	if nic.RxPops() != 0 {
		t.Fatalf("wrong-path loads popped the RX queue %d times", nic.RxPops())
	}
	if nic.RxPending() != 2 {
		t.Errorf("queue disturbed: %d pending, want 2", nic.RxPending())
	}
	if m.Stats().CPU.UncachedLoads != 0 {
		t.Errorf("%d uncached loads issued from the wrong path", m.Stats().CPU.UncachedLoads)
	}
}

// DMA send driven from simulated code, end to end.
func TestEndToEndDMASend(t *testing.T) {
	m, nic := machineWithNIC(t)
	src := `
	.equ NICREG, 0x40000000
	set NICREG, %o0
	set 0x30000, %o2
	set 0x77, %g1
	stx %g1, [%o2]
	stx %g1, [%o2+8]
	membar
	set 16, %g4
	sll %g4, 48, %g4
	set 0x30000, %g5
	or %g4, %g5, %g4
	stx %g4, [%o0+8]        ! RegDMA
	halt
`
	if _, err := m.LoadSource("dma.s", src); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(1_000_000); err != nil {
		t.Fatal(err)
	}
	pkts := nic.Packets()
	if len(pkts) != 1 {
		t.Fatalf("packets = %d, want 1", len(pkts))
	}
	if !pkts[0].ViaDMA || len(pkts[0].Data) != 16 || pkts[0].Data[0] != 0x77 {
		t.Errorf("packet = %+v", pkts[0])
	}
}

// DMA competes with CPU-driven uncached stores for the single bus; both
// must complete and all data must be intact.
func TestDMACompetesWithUncachedStores(t *testing.T) {
	m, nic := machineWithNIC(t)
	// DMA a 256B message from RAM while the CPU hammers uncached stores
	// at a different device-free region.
	m.MapRange(0x5000_0000, mem.PageSize, mem.KindUncached)
	for i := uint64(0); i < 256; i += 8 {
		m.RAM.WriteUint(0x30000+i, 8, 0xC0DE+i)
	}
	src := `
	.equ NICREG, 0x40000000
	set NICREG, %o0
	set 256, %g4
	sll %g4, 48, %g4
	set 0x30000, %g5
	or %g4, %g5, %g4
	stx %g4, [%o0+8]        ! start DMA
	set 0x50000000, %o3
	set 32, %g3
spam:	stx %g3, [%o3]
	add %o3, 8, %o3
	subcc %g3, 1, %g3
	bnz spam
	membar
	halt
`
	if _, err := m.LoadSource("contend.s", src); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(nic.Packets()) != 1 {
		t.Fatalf("DMA packet count = %d", len(nic.Packets()))
	}
	data := nic.Packets()[0].Data
	for i := uint64(0); i < 256; i += 8 {
		want := 0xC0DE + i
		got := uint64(0)
		for k := 7; k >= 0; k-- {
			got = got<<8 | uint64(data[i+uint64(k)])
		}
		if got != want {
			t.Fatalf("DMA data[%d] = %#x, want %#x", i, got, want)
		}
	}
	// 32 spam stores + the RegDMA descriptor store.
	if m.Stats().CPU.UncachedStores != 33 {
		t.Errorf("uncached stores = %d, want 33", m.Stats().CPU.UncachedStores)
	}
}

// §3.2: "uncached loads bypass the combined stores. This is reasonable
// because the combined stores have not yet been committed by a
// conditional flush." A load from combining space while data sits
// uncommitted in the CSB must observe the OLD memory contents.
func TestUncachedLoadBypassesUncommittedCSB(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.MapRange(0x4000_0000, mem.PageSize, mem.KindCombining)
	m.RAM.WriteUint(0x4000_0000, 8, 0xD1D1) // pre-existing device/memory state
	if _, err := m.LoadSource("bypass.s", `
	set 0x40000000, %o1
	mov 99, %g1
	stx %g1, [%o1]          ! into the CSB, NOT committed
	ldx [%o1], %g2          ! uncached load: bypasses the CSB
	halt
`); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Reg("%g2")
	if got != 0xD1D1 {
		t.Errorf("load observed %#x, want the old memory value 0xd1d1 (CSB bypassed)", got)
	}
	// The CSB still holds the uncommitted store.
	if m.CSB.HitCount() != 1 {
		t.Errorf("CSB hit count = %d, want 1 (store still pending)", m.CSB.HitCount())
	}
	if s := m.Stats(); s.CSB.Bursts != 0 {
		t.Error("uncommitted data leaked to the bus")
	}
}
