//go:build !race

// Excluded under the race detector: its instrumentation allocates on paths
// that are allocation-free in normal builds.

package sim

import (
	"bytes"
	"encoding/binary"
	"testing"

	"csbsim/internal/device"
	"csbsim/internal/mem"
)

// TestUncachedLoadAllocs bounds the ring traffic guest's steady-state
// allocations at one per 64 packets sent. An uncached load allocates
// nothing: its bus transaction and both completion callbacks are reused,
// and the target fills the transaction's own buffer
// (mem.Target.ReadTarget). The NIC's descriptor FIFO reuses its backing
// and sent packets' data is cut from 4 KiB slabs, so only the NIC's
// sent-packet log grows, amortized far below one allocation per 64
// packets.
func TestUncachedLoadAllocs(t *testing.T) {
	m, err := New(nicConfig())
	if err != nil {
		t.Fatal(err)
	}
	nic := m.NIC()
	m.MapRange(device.Base, device.RegionSize, mem.KindUncached)
	p, err := m.LoadSource("ring.s", ringTraffic)
	if err != nil {
		t.Fatal(err)
	}
	m.WarmProgram(p)
	for range 200_000 {
		m.Tick()
	}
	// AllocsPerRun makes one warm-up call; the counts are the last call's.
	var loads, packets uint64
	allocs := testing.AllocsPerRun(1, func() {
		l0, p0 := m.CPU.Stats().UncachedLoads, len(nic.Packets())
		for range 100_000 {
			m.Tick()
		}
		loads, packets = m.CPU.Stats().UncachedLoads-l0, uint64(len(nic.Packets())-p0)
	})
	t.Logf("%.0f allocations, %d uncached loads, %d packets in 100k cycles", allocs, loads, packets)
	if loads == 0 || packets == 0 {
		t.Fatal("the guest issued no uncached loads or sent no packets")
	}
	if allocs > float64(packets/64) {
		t.Errorf("%.0f allocations for %d uncached loads and %d packets, want at most one per 64 packets",
			allocs, loads, packets)
	}
}

// strideLoads loads one dword per line across 896 KiB of cached memory,
// far past the 256 KiB L2, and stores into each line it loads, so every
// load is a line fill from the bus and the dirty victims are written
// back. Each address depends on the previous load (which reads 0), so
// one fill is in flight at a time and every load finds a free MSHR.
const strideLoads = `
	set 0x20000, %o1
	set 0x100000, %o3
loop:
	ldx [%o1], %g1
	stx %g1, [%o1+8]
	add %o1, %g1, %o1
	add %o1, 64, %o1
	cmp %o1, %o3
	bl loop
	set 0x20000, %o1
	ba loop
`

// TestLineFillAllocs checks that an L2-missing load stream allocates
// nothing in steady state. A fill's bus transaction and completion
// callback belong to its MSHR and are reused; a fill is a Silent read,
// since the tag-only cache takes no data, so the bus neither reads RAM
// nor allocates a buffer for it; writebacks reuse one Silent
// transaction; and each pooled uop keeps one fill callback.
func TestLineFillAllocs(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.LoadSource("stride.s", strideLoads)
	if err != nil {
		t.Fatal(err)
	}
	m.WarmCode(p.Entry, 64)
	m.RAM.Write(0x20000, make([]byte, 0x100000-0x20000)) // materialize the RAM pages
	for range 700_000 {
		m.Tick()
	}
	var fills, writebacks uint64
	allocs := testing.AllocsPerRun(1, func() {
		s0 := m.Hier.Stats()
		for range 100_000 {
			m.Tick()
		}
		s := m.Hier.Stats()
		fills, writebacks = s.Fills-s0.Fills, s.Writebacks-s0.Writebacks
	})
	t.Logf("%.0f allocations, %d fills, %d writebacks in 100k cycles", allocs, fills, writebacks)
	if fills == 0 || writebacks == 0 {
		t.Fatal("the stream made no line fills or no writebacks")
	}
	if allocs != 0 {
		t.Errorf("%.0f allocations for %d line fills and %d writebacks, want none", allocs, fills, writebacks)
	}
}

// TestDMABurstAllocs checks that the NIC's DMA engine allocates nothing
// per burst: it reissues one bus transaction, whose buffer holds a
// whole burst and whose completion callback is bound once. The guest
// spins in cached code while the test starts 4 KiB transfers (64
// bursts each) by writing the DMA register; the measured stretch ends
// before the transfer's last burst, so no packet is sent inside it.
func TestDMABurstAllocs(t *testing.T) {
	m, err := New(nicConfig())
	if err != nil {
		t.Fatal(err)
	}
	nic := m.NIC()
	p, err := m.LoadSource("spin.s", "loop:\n\tba loop\n")
	if err != nil {
		t.Fatal(err)
	}
	m.WarmCode(p.Entry, 1)
	const src, size = 0x20000, device.PacketBufSize
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	m.RAM.Write(src, payload)
	var reg [8]byte
	binary.LittleEndian.PutUint64(reg[:], src|uint64(size)<<48)
	startDMA := func() { nic.WriteTarget(device.Base+device.RegDMA, reg[:]) }

	// One whole transfer warms the path and times it.
	startDMA()
	cycles := 0
	for len(nic.Packets()) == 0 {
		m.Tick()
		cycles++
	}
	startDMA()
	r0 := m.Bus.Stats().Reads
	// AllocsPerRun makes one warm-up call; together the two calls cover
	// two thirds of the transfer.
	allocs := testing.AllocsPerRun(1, func() {
		for range cycles / 3 {
			m.Tick()
		}
	})
	bursts := m.Bus.Stats().Reads - r0
	if len(nic.Packets()) != 1 || bursts < 32 {
		t.Fatalf("%d packets sent and %d bursts read in two thirds of a %d-cycle transfer, want 1 and at least 32",
			len(nic.Packets()), bursts, cycles)
	}
	t.Logf("%.0f allocations in a third of a %d-cycle transfer (%d bursts in two thirds)", allocs, cycles, bursts)
	if allocs != 0 {
		t.Errorf("%.0f allocations over %d DMA bursts, want none", allocs, bursts/2)
	}
	for len(nic.Packets()) == 1 {
		m.Tick()
	}
	if got := nic.Packets()[1].Data; !bytes.Equal(got, payload) {
		t.Error("the second transfer's packet differs from the source")
	}
}

// TestResetAllocs holds Machine.Reset to its purpose: a machine reset and
// rerun on the same point, as a figure's sweep worker does, allocates
// nothing once the first run has grown its uop slabs, cache chunks,
// memory pages and transactions.
func TestResetAllocs(t *testing.T) {
	for _, tc := range []struct {
		file string
		kind mem.Kind
	}{{"uncached_stores.s", mem.KindUncached}, {"csb_stores.s", mem.KindCombining}} {
		t.Run(tc.file, func(t *testing.T) {
			cfg := DefaultConfig()
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p, err := m.LoadSource(tc.file, exampleSource(t, tc.file))
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if err := m.Reset(cfg); err != nil {
					t.Fatal(err)
				}
				m.MapRange(0x4000_0000, 1<<16, tc.kind)
				if err := m.Load(p); err != nil {
					t.Fatal(err)
				}
				m.WarmProgram(p)
				if err := m.Run(1_000_000); err != nil {
					t.Fatal(err)
				}
				if err := m.Drain(100_000); err != nil {
					t.Fatal(err)
				}
			}
			if got := testing.AllocsPerRun(5, run); got != 0 {
				t.Errorf("Reset and rerun allocated %v times, want 0", got)
			}
			if m.Stats().CPU.Retired == 0 {
				t.Fatal("the program retired nothing")
			}
		})
	}
}
