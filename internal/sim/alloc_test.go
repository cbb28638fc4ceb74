//go:build !race

// Excluded under the race detector: its instrumentation allocates on paths
// that are allocation-free in normal builds.

package sim

import (
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
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nic := device.NewNIC(device.DefaultConfig(), nicBase)
	if err := m.AddDevice(nicBase, device.RegionSize, "nic", nic, nic); err != nil {
		t.Fatal(err)
	}
	m.MapRange(nicBase, device.RegionSize, mem.KindUncached)
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
