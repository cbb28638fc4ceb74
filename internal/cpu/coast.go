package cpu

import (
	"csbsim/internal/isa"
	"csbsim/internal/mem"
	"csbsim/internal/obs"
)

// Coasting: a core asleep at retire (see retireBound) whose ROB head's
// retire step is refused, or counts down, the same way on every cycle
// until some other agent changes lets the machine skip those cycles'
// stages and charge each one in O(1) with Coast. QuietCycles bounds the
// cycles by the head's own state and records what each one charges; the
// machine (internal/sim) bounds them further by the uncached buffer, the
// CSB, the caches, the bus and the devices, and wakes the core for any
// outside input.

// refusal names the counter a refused retire step bumps.
type refusal uint8

const (
	refuseNone   refusal = iota
	refuseUB             // uncbuf StallFull: a store or load found the buffer full
	refuseCSB            // CSB StallBusy: a combining store or flush found it busy
	refuseMembar         // MembarStall: the barrier found a buffer still draining
)

// coastPlan is the charge of one coasted cycle: its CPI bucket, a fetch
// stall while fetch is blocked, an asleep cycle unless the core halted,
// the head's refusal counter, and the head whose retire-phase countdown
// (a CSB flush's latency, a cached swap's hit latency) advances.
type coastPlan struct {
	cause      obs.StallCause
	fetchStall uint64
	asleep     uint64
	refusal    refusal
	countdown  *uop
}

// Asleep reports whether the core is asleep at retire: until its ROB
// head's retire step makes progress, a Tick runs only that step. An
// interrupt, a kernel stall and a pipeline flush wake it.
func (c *CPU) Asleep() bool { return c.asleep }

// AsleepCycles returns the cycles the core has spent asleep, ticked or
// coasted (an effort count, kept out of Stats).
func (c *CPU) AsleepCycles() uint64 { return c.asleepCycles }

// QuietCycles returns how many of the following cycles an asleep or
// halted core's Tick would repeat exactly, charging the same counters,
// provided the uncached buffer, the CSB and the cache hierarchy do not
// change: the head's retire step is refused by a full uncached buffer, a
// busy CSB or a barrier still waiting for the buffers, waits for its
// uncached load, or counts down a latency that ends after the returned
// cycles. A halted
// core repeats its halted cycle until Reset or RestoreState, so it has
// no bound of its own. It returns 0 when the core is awake, has an
// interrupt or kernel stall pending, or its next step may make progress,
// and records the charge Coast applies.
//
//csb:hotpath
func (c *CPU) QuietCycles() uint64 {
	p := &c.coast
	if c.halted {
		*p = coastPlan{cause: obs.CauseHalted}
		return ^uint64(0)
	}
	if !c.asleep || c.pendingIntr != 0 || c.stallCycles != 0 {
		return 0
	}
	u := c.rob[0]
	if u.isMem() && (!u.addrReady || !u.dataSrcReady() || u.faulted) {
		return 0
	}
	p.refusal = refuseNone
	p.countdown = nil
	n := ^uint64(0)
	switch {
	case u.inst.Op == isa.OpMEMBAR:
		if c.ub.Empty() && c.hier.StoreBufferEmpty() && c.csb.Drained() {
			return 0
		}
		p.refusal = refuseMembar
	case u.inst.Op == isa.OpSWAP && u.kind == mem.KindCached:
		if u.retPhase != 1 || u.remaining <= 1 {
			return 0
		}
		n = uint64(u.remaining - 1)
		p.countdown = u
	case u.inst.Op == isa.OpSWAP && u.kind == mem.KindCombining:
		if u.retPhase != 0 {
			if u.remaining <= 1 {
				return 0
			}
			n = uint64(u.remaining - 1)
			p.countdown = u
		} else if c.csb.Busy() {
			p.refusal = refuseCSB
		} else {
			return 0
		}
	case u.inst.Op == isa.OpSWAP || u.inst.Op.Class() == isa.ClassLoad:
		// Uncached swap or load: phase 0 queues the read, phase 1 waits
		// for it, and a swap's phase 2 queues the write.
		switch {
		case u.retPhase == 1:
		case u.retPhase == 0 && c.ub.Full():
			p.refusal = refuseUB
		case u.retPhase == 2 && u.inst.Op == isa.OpSWAP && !c.ub.CanAcceptStore(u.pa, 8):
			p.refusal = refuseUB
		default:
			return 0
		}
	case u.inst.Op.Class() == isa.ClassStore && u.kind == mem.KindCombining:
		if !c.csb.Busy() {
			return 0
		}
		p.refusal = refuseCSB
	case u.inst.Op.Class() == isa.ClassStore:
		if c.ub.CanAcceptStore(u.pa, u.inst.Op.MemBytes()) {
			return 0
		}
		p.refusal = refuseUB
	default:
		return 0
	}
	p.cause = c.classifyRetireExec(u)
	p.asleep = 1
	p.fetchStall = 0
	if c.fetchBlocked {
		p.fetchStall = 1
	}
	return n
}

// Coast charges n cycles of an asleep or halted core exactly as n Ticks
// would, within the cycles QuietCycles allowed: the cycles, their CPI
// bucket, the fetch stalls, the asleep cycles, the refused step's counter
// and the head's countdown.
//
//csb:hotpath
func (c *CPU) Coast(n uint64) {
	p := &c.coast
	c.stats.Cycles += n
	c.stats.CPI[p.cause] += n
	c.stats.FetchStalls += p.fetchStall * n
	c.asleepCycles += p.asleep * n
	switch p.refusal {
	case refuseUB:
		c.ub.CountStallFull(n)
	case refuseCSB:
		c.csb.CountStallBusy(n)
	case refuseMembar:
		c.stats.MembarStall += n
	}
	if u := p.countdown; u != nil {
		u.remaining -= int32(n)
	}
}
