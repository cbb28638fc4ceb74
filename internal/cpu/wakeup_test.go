package cpu

import (
	"testing"

	"csbsim/internal/asm"
	"csbsim/internal/emu"
	"csbsim/internal/isa"
	"csbsim/internal/mem"
)

// matchEmu runs p on the reference emulator and compares the committed
// register state.
func matchEmu(t *testing.T, r *rig, p *asm.Program) {
	t.Helper()
	e, err := emu.New(p, emu.WithMaxSteps(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := r.c.State()
	for i := isa.Reg(1); i < isa.NumRegs; i++ {
		if st.R[i] != e.R[i] {
			t.Errorf("%s = %#x, emulator %#x", isa.RegName(i), st.R[i], e.R[i])
		}
	}
	if st.F != e.F || st.CC != e.CC {
		t.Errorf("FP/CC state differs: %v %+v vs %v %+v", st.F, st.CC, e.F, e.CC)
	}
}

// robSeqs returns the sequence numbers in the ROB.
func robSeqs(c *CPU) map[uint64]bool {
	m := make(map[uint64]bool, len(c.rob))
	for _, u := range c.rob {
		m[u.seq] = true
	}
	return m
}

// TestPollingLoopSquashesParkedWaiters polls a device status register:
// an uncached ldx feeds srl → cmp → bl. The load executes at retire, so
// its consumers park on it for the whole bus round trip. An alternating
// branch behind each load mispredicts and squashes some of those
// consumers while the load survives; the killed waiters must leave its
// wakeup list before their slots are reused.
func TestPollingLoopSquashesParkedWaiters(t *testing.T) {
	r := newRig(t)
	r.pt.MapRange(0x4000_0000, 0x4000_0000, mem.PageSize, mem.KindUncached, true)
	p := r.load(t, `
	set 0x40000000, %o0
	mov 80, %g5
	stx %g5, [%o0]          ! device status: 80
	membar
	clr %l4
	clr %i0
poll:
	ldx [%o0], %g1          ! status poll: retire-executed, long latency
	add %l4, 1, %l4
	andcc %l4, 1, %g6
	bnz odd                 ! alternates, so it mispredicts often
	srl %g1, 2, %g3         ! parked on the load
	add %i0, %g3, %i0
odd:
	srl %g1, 1, %g2         ! parked on the load
	cmp %l4, %g2
	bl poll                 ! until 40 polls
	halt
`)
	// Before each cycle, note the uops parked on each in-flight load.
	// If a squash then removes some of them while their load survives,
	// the scenario under test occurred.
	parked := map[*uop][]uint64{}
	var squashedParked int
	before := func() {
		clear(parked)
		for _, u := range r.c.rob {
			if u.inst.Op.Class() != isa.ClassLoad {
				continue
			}
			for w := u.waiters; w != nil; w = w.wnext {
				parked[u] = append(parked[u], w.seq)
			}
		}
	}
	after := func() {
		live := robSeqs(r.c)
		for ld, ws := range parked {
			if !live[ld.seq] {
				continue
			}
			for _, s := range ws {
				if !live[s] {
					squashedParked++
				}
			}
		}
	}
	r.runWatched(t, 1_000_000, before, after)
	matchEmu(t, r, p)
	l4, _ := isa.ParseReg("%l4")
	if got := r.c.State().R[l4]; got != 40 {
		t.Errorf("polls = %d, want 40", got)
	}
	if squashedParked == 0 {
		t.Error("no squash hit a uop parked on a surviving load")
	}
	if r.c.Stats().UncachedLoads != 40 {
		t.Errorf("uncached loads = %d, want 40", r.c.Stats().UncachedLoads)
	}
}

// TestWrongPathFaultWakesConsumerSameCycle runs a branch that resolves
// late (behind a multiply chain) and that the cold predictor gets wrong.
// On the wrong path a load through an unmapped pointer faults. issue
// marks the faulted load done, and its parked consumer, younger in the
// same issue walk, must issue in that very cycle.
func TestWrongPathFaultWakesConsumerSameCycle(t *testing.T) {
	r := newRig(t)
	p := r.load(t, `
	set 0x70000000, %o2     ! unmapped
	mov 3, %g2
	mul %g2, 1, %g2
	mul %g2, 1, %g2
	mul %g2, 1, %g2
	mul %g2, 1, %g2
	mul %g2, 1, %g2
	mul %g2, 1, %g2
	subcc %g2, 3, %g3
	bz skip                 ! taken; predicted not taken
	ldx [%o2], %g1          ! wrong path only: faults
	add %g1, 1, %g7         ! parked on the load
	sub %g7, 2, %g4         ! parked on the add
skip:
	mov 5, %g5
	halt
`)
	var sameCycle int
	after := func() {
		for _, ld := range r.c.rob {
			if !ld.isMem() || !ld.faulted || !ld.done {
				continue
			}
			for _, u := range r.c.rob {
				if u.isMem() || u.s1 != ld || !u.issued {
					continue
				}
				if u.issueC != ld.completeC {
					t.Fatalf("consumer seq %d issued at cycle %d, its faulted load completed at %d",
						u.seq, u.issueC, ld.completeC)
				}
				sameCycle++
			}
		}
	}
	r.runWatched(t, 1_000_000, nil, after)
	matchEmu(t, r, p)
	if sameCycle == 0 {
		t.Error("no wrong-path faulted load woke a consumer")
	}
	if r.c.Stats().Mispredicts == 0 {
		t.Error("the branch did not mispredict")
	}
}
