package bench

import (
	"fmt"

	"csbsim/internal/asm"
	"csbsim/internal/device"
	"csbsim/internal/kernel"
	"csbsim/internal/mem"
	"csbsim/internal/sim"
)

// Extension X6 (paper §5): "the non-blocking synchronization feature opens
// new opportunities for the design of user-level network interfaces.
// Processes can be allowed to access device control registers … without
// operating system involvement since atomicity is provided by the
// conditional store buffer."
//
// Two preemptively-scheduled processes share one NIC and each send N
// line-sized messages into their own packet-buffer slot.
//
//   - Lock variant: a shared spin lock serializes device access; each
//     message is lock → uncached payload stores → membar → descriptor →
//     unlock. A process preempted inside the critical section blocks its
//     rival for the rest of the quantum (the §2 "costly locking overhead").
//   - CSB variant: no lock at all; the payload is committed by one
//     conditional flush and the descriptor push is a single atomic store.
//     Preemption mid-sequence just costs a local retry.

// lockSenderProgram emits the lock-based sender.
func lockSenderProgram(org uint64, slot uint64, msgs int) string {
	return fmt.Sprintf(`
	.org %#x
	.equ NICREG, %#x
	.equ SLOT, %#x
	.equ LOCK, 0x90000
	set NICREG, %%o0
	set SLOT, %%o1
	set LOCK, %%o2
	set %d, %%g3            ! messages to send
	mov 0x5A, %%g1
	movr2f %%g1, %%f0
msg:
acquire:
	mov 1, %%l4
	swap [%%o2], %%l4
	tst %%l4
	bnz acquire             ! spin while the rival (or its ghost) holds it
	membar
	std %%f0, [%%o1]
	std %%f0, [%%o1+8]
	std %%f0, [%%o1+16]
	std %%f0, [%%o1+24]
	std %%f0, [%%o1+32]
	std %%f0, [%%o1+40]
	std %%f0, [%%o1+48]
	std %%f0, [%%o1+56]
	membar                  ! payload must reach the device first
	set 64, %%g4
	sll %%g4, 48, %%g4
	set SLOT, %%g5
	set NICREG, %%g6
	sub %%g5, %%g6, %%g5
	sub %%g5, 4096, %%g5    ! descriptor offset within the packet buffer
	or %%g4, %%g5, %%g4
	stx %%g4, [%%o0]
	membar
	clr %%l5
	stx %%l5, [%%o2]        ! release
	subcc %%g3, 1, %%g3
	bnz msg
	halt
`, org, NICBase, slot, msgs)
}

// csbSenderProgram emits the lock-free CSB sender.
func csbSenderProgram(org uint64, slot uint64, msgs int) string {
	return fmt.Sprintf(`
	.org %#x
	.equ NICREG, %#x
	.equ SLOT, %#x
	set NICREG, %%o0
	set SLOT, %%o1
	set %d, %%g3
	mov 0x5A, %%g1
	movr2f %%g1, %%f0
msg:
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
	swap [%%o1], %%l4       ! conditional flush: atomic line burst
	cmp %%l4, 8
	bnz RETRY               ! preempted mid-sequence? just retry
	set 64, %%g4
	sll %%g4, 48, %%g4
	set SLOT, %%g5
	set NICREG, %%g6
	sub %%g5, %%g6, %%g5
	sub %%g5, 4096, %%g5
	or %%g4, %%g5, %%g4
	stx %%g4, [%%o0]        ! single-store descriptor push (atomic)
	subcc %%g3, 1, %%g3
	bnz msg
	halt
`, org, NICBase, slot, msgs)
}

// SharedNICResult captures one X6 run.
type SharedNICResult struct {
	Cycles    uint64 // total CPU cycles until both processes exit
	Packets   int
	Switches  uint64
	FlushFail uint64 // CSB variant: conflicts repaired by retry
}

// MeasureSharedNIC runs two processes sending msgs line-sized messages
// each through one shared NIC, preempted every quantum cycles.
func MeasureSharedNIC(useCSB bool, msgs int, quantum uint64) (SharedNICResult, error) {
	progs, err := assembleEach(senderSources(useCSB, msgs))
	if err != nil {
		return SharedNICResult{}, err
	}
	return sharedNIC(nil, useCSB, progs[0], progs[1], quantum)
}

// senderSources are the two senders' programs, each sending msgs
// messages into its own packet-buffer slot.
func senderSources(useCSB bool, msgs int) []source {
	slotA := NICBase + device.PacketBufBase
	slotB := slotA + 64
	gen := lockSenderProgram
	if useCSB {
		gen = csbSenderProgram
	}
	return []source{{"a.s", gen(0x10000, slotA, msgs)}, {"b.s", gen(0x60000, slotB, msgs)}}
}

// sharedNIC is MeasureSharedNIC on the assembled senderSources, which it
// only reads, on w's machine.
func sharedNIC(w *worker, useCSB bool, progA, progB *asm.Program, quantum uint64) (SharedNICResult, error) {
	var res SharedNICResult
	m, err := w.machine(sim.DefaultConfig())
	if err != nil {
		return res, err
	}
	nic := device.NewNIC(device.DefaultConfig(), NICBase)
	if err := m.AddNIC(nic); err != nil {
		return res, err
	}
	k := kernel.New(m, quantum)
	bufKind := mem.KindUncached
	if useCSB {
		bufKind = mem.KindCombining
	}
	pa, err := k.Spawn("sender-a", 1, progA)
	if err != nil {
		return res, err
	}
	pb, err := k.Spawn("sender-b", 2, progB)
	if err != nil {
		return res, err
	}
	for _, p := range []*kernel.Process{pa, pb} {
		p.Space.MapRange(NICBase, NICBase, device.PacketBufBase, mem.KindUncached, true)
		p.Space.MapRange(NICBase+device.PacketBufBase, NICBase+device.PacketBufBase,
			device.PacketBufSize, bufKind, true)
		// The shared lock lives in cached memory visible to both.
		p.Space.MapRange(0x90000, 0x90000, mem.PageSize, mem.KindCached, true)
	}
	if err := k.Run(200_000_000); err != nil {
		return res, err
	}
	if err := m.Drain(1_000_000); err != nil {
		return res, err
	}
	s := m.Stats()
	res.Cycles = m.Cycle()
	res.Packets = len(nic.Packets())
	res.Switches = k.Switches()
	res.FlushFail = s.CSB.FlushFail
	return res, nil
}

// ExtensionSharedNIC regenerates experiment X6: lock-based vs lock-free
// (CSB) shared device access under preemption, across quanta.
func ExtensionSharedNIC() (Result, error) {
	quanta := []uint64{400, 800, 1600, 3200}
	const msgs = 20
	r := Result{
		ID:     "X6",
		Title:  "shared NIC, two preempted processes: lock-based vs lock-free CSB access",
		XLabel: "scheduler quantum (cycles)", YLabel: "total CPU cycles for 2x20 messages",
		Notes: "per-process packet-buffer slots; lock variant serializes with a shared spin lock",
	}
	for _, q := range quanta {
		r.X = append(r.X, fmt.Sprintf("%d", q))
	}
	variants := []bool{false, true} // lock-based, then CSB lock-free
	names := []string{"lock+uncached", "CSB lock-free"}
	// progs[2*si] and progs[2*si+1] are variant si's two senders, shared
	// by every quantum.
	var srcs []source
	for _, useCSB := range variants {
		srcs = append(srcs, senderSources(useCSB, msgs)...)
	}
	progs, err := assembleEach(srcs)
	if err != nil {
		return r, err
	}
	ys, err := sweepSeries(len(variants), len(quanta), func(w *worker, si, xi int) (float64, error) {
		res, err := sharedNIC(w, variants[si], progs[2*si], progs[2*si+1], quanta[xi])
		if err != nil {
			return 0, err
		}
		if res.Packets != 2*msgs {
			return 0, fmt.Errorf("bench X6 (%s, q=%d): %d packets, want %d",
				names[si], quanta[xi], res.Packets, 2*msgs)
		}
		return float64(res.Cycles), nil
	})
	if err != nil {
		return r, err
	}
	for si, name := range names {
		r.Series = append(r.Series, Series{Name: name, Y: ys[si]})
	}
	return r, nil
}
