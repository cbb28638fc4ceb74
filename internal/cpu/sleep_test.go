package cpu

import (
	"testing"

	"csbsim/internal/mem"
)

// TestSleepAtRetire runs a store stream into uncached space, whose stores
// wait at retire for room in the uncached buffer. The core must sleep
// through most cycles, and CheckQueues, run after every cycle, asserts
// that each asleep cycle still meets the conditions the core fell asleep
// on. FlushPipeline on a sleeping core must wake it: the stalled store
// had no side effect yet, so it is re-fetched and the stream still
// writes every doubleword once, as the emulator does.
func TestSleepAtRetire(t *testing.T) {
	r := newRig(t)
	r.pt.MapRange(0x4000_0000, 0x4000_0000, mem.PageSize, mem.KindUncached, true)
	p := r.load(t, `
	set 0x40000000, %o1
	set 64, %g2
loop:
	stx %g2, [%o1]
	stx %g2, [%o1+8]
	stx %g2, [%o1+16]
	stx %g2, [%o1+24]
	add %o1, 32, %o1
	subcc %g2, 1, %g2
	bnz loop
	membar
	halt
`)
	var asleep, flushes int
	r.runWatched(t, 1_000_000, nil, func() {
		if !r.c.asleep {
			return
		}
		asleep++
		if asleep%500 == 0 {
			r.c.FlushPipeline()
			if r.c.asleep {
				t.Fatalf("cycle %d: FlushPipeline left the core asleep", r.cycle)
			}
			flushes++
		}
	})
	if 2*uint64(asleep) < r.cycle || flushes == 0 {
		t.Fatalf("asleep %d of %d cycles, %d flushes while asleep; want most cycles asleep and a flush",
			asleep, r.cycle, flushes)
	}
	matchEmu(t, r, p)
	for i := 0; i < 1000 && !r.u.Empty(); i++ {
		r.tick()
	}
	for i := uint64(0); i < 64; i++ {
		for k := uint64(0); k < 4; k++ {
			addr := 0x4000_0000 + 32*i + 8*k
			if got := r.ram.ReadUint(addr, 8); got != 64-i {
				t.Fatalf("[%#x] = %d, want %d", addr, got, 64-i)
			}
		}
	}
	if got := r.c.Stats().UncachedStores; got != 256 {
		t.Errorf("%d uncached stores retired, want 256", got)
	}
}
