// Package cpu implements the dynamically-scheduled processor model of the
// paper's evaluation (§4.1), patterned on RSIM's: a four-wide core with a
// unified dispatch queue (the ROB) that tracks true data dependences and
// structural hazards, out-of-order issue to two integer units and two
// floating-point units, a memory queue that speculatively performs address
// calculations and executes cached loads, and in-order retirement for
// precise interrupts.
//
// Uncached operations (including CSB combining stores and the conditional
// flush) are issued non-speculatively, at or after the time they retire
// from the reorder buffer, strictly in program order — the property that
// gives I/O its in-order, exactly-once semantics.
package cpu

import (
	"fmt"

	"csbsim/internal/obs"
)

// Config parameterizes the core. DefaultConfig matches the paper's machine.
type Config struct {
	FetchWidth    int // instructions fetched per cycle
	DispatchWidth int
	RetireWidth   int
	ROBSize       int
	FetchQueue    int // decoded-instruction buffer between fetch and dispatch

	IntALUs int
	FPUs    int

	IntLatency   int
	MulLatency   int
	FPLatency    int
	FPDivLatency int

	// MemPorts is the number of cache accesses that may start per cycle;
	// AGUs is the number of address generations per cycle.
	MemPorts int
	AGUs     int
	LSQSize  int

	// MaxBranches bounds unresolved branches in flight (each holds a
	// rename-map snapshot).
	MaxBranches int
	// PredictorSize is the number of 2-bit counters (power of two).
	PredictorSize int

	// TLBEntries sizes the data TLB; TLBWalkLatency is the hardware
	// page-walk cost in cycles on a TLB miss (0: the walk is free and
	// translation completes in the address-generation cycle).
	TLBEntries     int
	TLBWalkLatency int

	// CSBLatency is the CPU-visible response time of a CSB store or
	// conditional flush, in cycles.
	CSBLatency int
}

// DefaultConfig returns the paper's core: 4-wide dispatch/retire, 2 integer
// and 2 FP units, a 64-entry dispatch queue.
func DefaultConfig() Config {
	return Config{
		FetchWidth:     4,
		DispatchWidth:  4,
		RetireWidth:    4,
		ROBSize:        64,
		FetchQueue:     16,
		IntALUs:        2,
		FPUs:           2,
		IntLatency:     1,
		MulLatency:     4,
		FPLatency:      3,
		FPDivLatency:   12,
		MemPorts:       2,
		AGUs:           1,
		LSQSize:        32,
		MaxBranches:    8,
		PredictorSize:  1024,
		TLBEntries:     64,
		TLBWalkLatency: 20,
		CSBLatency:     1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	pos := []struct {
		name string
		v    int
	}{
		{"FetchWidth", c.FetchWidth}, {"DispatchWidth", c.DispatchWidth},
		{"RetireWidth", c.RetireWidth}, {"ROBSize", c.ROBSize},
		{"FetchQueue", c.FetchQueue}, {"IntALUs", c.IntALUs}, {"FPUs", c.FPUs},
		{"IntLatency", c.IntLatency}, {"MulLatency", c.MulLatency},
		{"FPLatency", c.FPLatency}, {"FPDivLatency", c.FPDivLatency},
		{"MemPorts", c.MemPorts}, {"AGUs", c.AGUs},
		{"LSQSize", c.LSQSize}, {"MaxBranches", c.MaxBranches},
		{"TLBEntries", c.TLBEntries}, {"CSBLatency", c.CSBLatency},
	}
	for _, f := range pos {
		if f.v <= 0 {
			return fmt.Errorf("cpu: %s must be positive, got %d", f.name, f.v)
		}
	}
	if c.PredictorSize <= 0 || c.PredictorSize&(c.PredictorSize-1) != 0 {
		return fmt.Errorf("cpu: PredictorSize %d not a power of two", c.PredictorSize)
	}
	if c.TLBWalkLatency < 0 {
		return fmt.Errorf("cpu: negative TLB walk latency")
	}
	return nil
}

// Stats aggregates processor activity.
type Stats struct {
	Cycles       uint64
	Fetched      uint64
	Dispatched   uint64
	Retired      uint64
	Squashed     uint64
	Branches     uint64
	Mispredicts  uint64
	ICacheStalls uint64
	FetchStalls  uint64

	CachedLoads    uint64
	CachedStores   uint64
	UncachedLoads  uint64
	UncachedStores uint64
	CSBStores      uint64
	CSBFlushes     uint64
	CSBFlushFails  uint64
	Swaps          uint64
	Membars        uint64
	MembarStall    uint64
	Traps          uint64
	Interrupts     uint64
	Faults         uint64

	// CPI is the stall-attribution stack: every cycle is charged to
	// exactly one bucket, so CPI.Total() == Cycles always holds.
	CPI obs.CPIStack
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}
