package cpu

import (
	"encoding/binary"
	"fmt"

	"csbsim/internal/isa"
	"csbsim/internal/mem"
	"csbsim/internal/obs"
)

// retire commits up to RetireWidth instructions in program order. At most
// one retire-executed operation (uncached access, swap, membar, privileged
// op) completes per cycle — which is what makes CSB combining stores cost
// one cycle per doubleword on the CPU side, matching §4.3.2.
const (
	rexStall = iota
	rexRetired
	rexRedirected // retired and the pipeline was flushed/redirected
)

func (c *CPU) retire() {
	if c.pendingIntr != 0 && c.arch.InterruptsEnabled() && !c.retireExecInFlight() {
		c.deliverInterrupt()
		return
	}
	for n := 0; n < c.cfg.RetireWidth && len(c.rob) > 0; n++ {
		u := c.rob[0]
		if u.needsRetireExec() {
			c.retireExecStep(u)
			return // at most one retire-exec per cycle
		}
		if !u.done {
			return
		}
		if u.faulted {
			c.fault(u)
			return
		}
		if !c.commit(u) {
			return // write buffer full
		}
		c.popHead(u)
	}
}

// retireExecStep gives u, the retire-executed ROB head, its retire step
// for this cycle. It reports whether the step made progress: retired u,
// redirected the pipeline or halted the core. A stalled step may still
// advance u's own retire phase or countdown; a sleeping core (see Tick)
// re-runs exactly this step.
func (c *CPU) retireExecStep(u *uop) bool {
	if u.isMem() && !(u.addrReady && u.dataSrcReady()) {
		return false
	}
	if u.isMem() && u.faulted {
		c.fault(u)
		return true
	}
	switch c.retireExec(u) {
	case rexStall:
		return false
	case rexRetired:
		c.commitDest(u)
		c.popHead(u)
	case rexRedirected:
		c.stats.Retired++
		c.retiredThisCycle = true
		if len(c.retireObs) != 0 {
			c.notifyRetire(u)
		}
	}
	return true
}

// retireExecInFlight reports whether the head of the ROB is a
// retire-executed operation that has already begun its side effects (an
// uncached load issued to the bus, a conditional flush past the CSB, a
// swap mid-RMW). Interrupt delivery must wait for it: flushing and
// replaying such an operation would execute its I/O side effect twice,
// violating the exactly-once requirement the whole design exists to
// provide.
func (c *CPU) retireExecInFlight() bool {
	if len(c.rob) == 0 {
		return false
	}
	u := c.rob[0]
	return u.needsRetireExec() && u.retPhase > 0
}

// commit applies a normal instruction's architectural effects. It returns
// false when a cached store cannot enter the write buffer this cycle.
func (c *CPU) commit(u *uop) bool {
	if u.inst.Op.Class() == isa.ClassStore && u.kind == mem.KindCached {
		if !c.hier.Store(u.pa) {
			return false
		}
		size := u.inst.Op.MemBytes()
		c.ram.WriteUint(u.pa, size, u.vald())
		c.decInvalidate(u.pa, size)
		c.hier.MarkDirty(u.pa)
		c.stats.CachedStores++
	}
	c.commitDest(u)
	return true
}

func (c *CPU) commitDest(u *uop) {
	switch {
	case u.fl&flWritesFP != 0:
		c.arch.F[u.inst.Rd] = u.result
	case u.fl&flWritesInt != 0:
		c.arch.R[u.inst.Rd] = u.result
	}
	if u.fl&flWritesCC != 0 {
		c.arch.CC = u.flags
	}
}

// popHead retires the ROB head: notifies observers, releases its rename
// entries, and parks u on the retired queue until recycleRetired proves
// nothing in flight can still reference it. The retired queue is the uop
// pool's quarantine stage, hence:
//
//csb:hotpath
//csb:pool
func (c *CPU) popHead(u *uop) {
	c.retiredThisCycle = true
	if len(c.retireObs) != 0 {
		c.notifyRetire(u)
	}
	c.rob = c.rob[1:]
	if u.fl&flWritesFP != 0 && c.fpRen[u.inst.Rd] == u {
		c.fpRen[u.inst.Rd] = nil
	} else if u.fl&flWritesInt != 0 && c.intRen[u.inst.Rd] == u {
		c.intRen[u.inst.Rd] = nil
	}
	if c.ccRen == u {
		c.ccRen = nil
	}
	if u.isMem() {
		c.memCount--
	}
	if u.isBranch() && !u.resolved {
		c.branchCount--
	}
	u.freeStamp = c.seq
	c.pushRetq(u)
	c.stats.Retired++
	if u.isBranch() && u.resolved {
		c.arch.PC = u.actualNext
	} else {
		c.arch.PC = u.pc + 4
	}
}

// notifyRetire hands u's retirement to the observers. Callers test
// len(c.retireObs) first, so a core without observers builds no event.
//
//csb:hotpath
func (c *CPU) notifyRetire(u *uop) {
	ev := RetireEvent{
		Cycle: c.stats.Cycles, Seq: u.seq, PC: u.pc, Inst: u.inst,
		Result: u.result, Addr: u.va, IsMem: u.isMem(),
		FetchCycle: u.fetchC, DispatchCycle: u.dispatchC,
		IssueCycle: u.issueC, CompleteCycle: u.completeC,
	}
	for _, fn := range c.retireObs {
		fn(ev)
	}
}

// retireExec performs head-of-ROB operations.
func (c *CPU) retireExec(u *uop) int {
	switch u.inst.Op {
	case isa.OpMEMBAR:
		if c.ub.Empty() && c.hier.StoreBufferEmpty() && c.csb.Drained() {
			c.stats.Membars++
			c.markDone(u)
			return rexRetired
		}
		c.stats.MembarStall++
		return rexStall

	case isa.OpRDPR:
		pr := isa.PR(u.inst.Imm)
		if pr >= isa.NumPRs {
			c.fault(u)
			return rexRedirected
		}
		if pr == isa.PRCYCLE {
			u.result = c.stats.Cycles
		} else {
			u.result = c.arch.PR[pr]
		}
		c.markDone(u)
		return rexRetired

	case isa.OpWRPR:
		pr := isa.PR(u.inst.Imm)
		if pr >= isa.NumPRs {
			c.fault(u)
			return rexRedirected
		}
		c.arch.PR[pr] = u.val1()
		if pr == isa.PRPID && c.PIDChanged != nil {
			c.PIDChanged(uint8(u.val1()))
		}
		c.markDone(u)
		return rexRetired

	case isa.OpIRET:
		target := c.arch.PR[isa.PRERPC]
		c.arch.PR[isa.PRSTATUS] |= 1
		c.flushAll()
		c.pc = target
		c.arch.PC = target
		return rexRedirected

	case isa.OpTRAP:
		c.stats.Traps++
		code := u.inst.Imm
		if c.TrapHook != nil && c.TrapHook(code) {
			c.markDone(u)
			return rexRetired
		}
		ivec := c.arch.PR[isa.PRIVEC]
		if ivec == 0 {
			c.halted = true
			c.haltErr = fmt.Errorf("cpu: unhandled trap %d at pc %#x", code, u.pc)
			return rexRedirected
		}
		c.arch.PR[isa.PRERPC] = u.pc + 4
		c.arch.PR[isa.PRCAUSE] = uint64(isa.CauseSoftware) | uint64(code)<<8
		c.arch.PR[isa.PRSTATUS] &^= 1
		c.flushAll()
		c.pc = ivec
		c.arch.PC = ivec
		return rexRedirected

	case isa.OpHALT:
		c.halted = true
		c.arch.PC = u.pc
		return rexRedirected

	case isa.OpSWAP:
		return c.retireSwap(u)
	}

	// Uncached / combining loads and stores.
	switch u.inst.Op.Class() {
	case isa.ClassLoad:
		return c.retireUncachedLoad(u)
	case isa.ClassStore:
		return c.retireUncachedStore(u)
	}
	c.fault(u)
	return rexRedirected
}

func (c *CPU) retireSwap(u *uop) int {
	switch u.kind {
	case mem.KindCached:
		return c.retireSwapCached(u)
	case mem.KindCombining:
		return c.retireConditionalFlush(u)
	default:
		return c.retireSwapUncached(u)
	}
}

// retireSwapCached performs an atomic exchange in the data cache (the lock
// acquire/release primitive of §4.2's second microbenchmark).
func (c *CPU) retireSwapCached(u *uop) int {
	switch u.retPhase {
	case 0:
		u.pins++
		//csb:pool — the fill callback's capture of u is pin-counted (u.pins).
		lat, hit, accepted := c.hier.Load(u.pa, false, c.fillCallback(u))
		if hit || !accepted {
			u.pins-- // callback not retained
		}
		if !accepted {
			return rexStall
		}
		if hit {
			u.remaining = int32(lat)
			u.retPhase = 1
			return rexStall
		}
		u.memWait = true
		u.retPhase = 2
		return rexStall
	case 1:
		u.remaining--
		if u.remaining > 0 {
			return rexStall
		}
		old := c.ram.ReadUint(u.pa, 8)
		c.ram.WriteUint(u.pa, 8, u.vald())
		c.decInvalidate(u.pa, 8)
		c.hier.MarkDirty(u.pa)
		u.result = old
		c.markDone(u)
		c.stats.Swaps++
		return rexRetired
	default: // 2: waiting for the fill
		if u.memWait {
			return rexStall
		}
		u.retPhase = 0
		return rexStall
	}
}

// retireConditionalFlush is the CSB conditional flush: swap to combining
// space (§3.1/§3.2).
func (c *CPU) retireConditionalFlush(u *uop) int {
	switch u.retPhase {
	case 0:
		before := c.csb.Stats().FlushOK
		res, ready := c.csb.ConditionalFlush(c.arch.PID(), u.pa, int64(u.vald()), u.vald())
		if !ready {
			return rexStall
		}
		u.result = res
		u.remaining = int32(c.cfg.CSBLatency)
		u.retPhase = 1
		c.stats.CSBFlushes++
		if c.csb.Stats().FlushOK == before {
			c.stats.CSBFlushFails++
		}
		return rexStall
	default:
		u.remaining--
		if u.remaining > 0 {
			return rexStall
		}
		c.markDone(u)
		return rexRetired
	}
}

// addUncachedLoad queues u's uncached read of size bytes and moves it to
// retire phase 1, waiting for the data; a refused read stays in phase 0
// to retry.
//
//csb:hotpath
func (c *CPU) addUncachedLoad(u *uop, size int) {
	if !c.ub.AddLoad(u.pa, size, c.loadDone) {
		return
	}
	u.pins++
	c.ucLoads = append(c.ucLoads, u) //csb:pool — pin-counted (u.pins) until its read completes
	u.retPhase = 1
}

// uncachedLoadDone completes the oldest queued uncached read: a live uop
// takes the data and moves to its last retire phase; a flushed one is
// just unpinned.
//
//csb:hotpath
func (c *CPU) uncachedLoadDone(data []byte) {
	u := c.ucLoads[0]
	n := copy(c.ucLoads, c.ucLoads[1:])
	c.ucLoads[n] = nil
	c.ucLoads = c.ucLoads[:n]
	u.pins--
	if !u.dead {
		u.result = leUint(data)
		u.retPhase = 2
	}
}

// retireSwapUncached implements swap to plain uncached space as a blocking
// bus read followed by a bus write, both strongly ordered.
func (c *CPU) retireSwapUncached(u *uop) int {
	switch u.retPhase {
	case 0:
		c.addUncachedLoad(u, 8)
		return rexStall
	case 1:
		return rexStall // waiting for the read
	default: // 2
		if !c.ub.AddStore(u.pa, 8, c.leBytes(u.vald(), 8)) {
			return rexStall
		}
		c.markDone(u)
		c.stats.Swaps++
		return rexRetired
	}
}

func (c *CPU) retireUncachedLoad(u *uop) int {
	switch u.retPhase {
	case 0:
		c.addUncachedLoad(u, u.inst.Op.MemBytes())
		return rexStall
	case 1:
		return rexStall
	default:
		c.markDone(u)
		c.stats.UncachedLoads++
		return rexRetired
	}
}

func (c *CPU) retireUncachedStore(u *uop) int {
	size := u.inst.Op.MemBytes()
	data := c.leBytes(u.vald(), size)
	if u.kind == mem.KindCombining {
		if !c.csb.Store(c.arch.PID(), u.pa, size, data) {
			return rexStall
		}
		c.stats.CSBStores++
		c.markDone(u)
		return rexRetired
	}
	if !c.ub.AddStore(u.pa, size, data) {
		return rexStall
	}
	c.stats.UncachedStores++
	c.markDone(u)
	return rexRetired
}

func (c *CPU) fault(u *uop) {
	c.stats.Faults++
	c.halted = true
	c.haltErr = fmt.Errorf("cpu: memory fault at pc %#x (%s, va %#x)", u.pc, u.inst.String(), u.va)
}

func (c *CPU) deliverInterrupt() {
	cause := c.pendingIntr
	c.pendingIntr = 0
	c.stats.Interrupts++
	c.cycleCause = obs.CauseInterrupt
	c.cycleCauseSet = true
	resume := c.pc
	if len(c.rob) > 0 {
		resume = c.rob[0].pc
	} else if len(c.fetchQ) > 0 {
		resume = c.fetchQ[0].pc
	}
	c.flushAll()
	c.arch.PC = resume
	c.arch.PR[isa.PRERPC] = resume
	c.arch.PR[isa.PRCAUSE] = cause
	c.arch.PR[isa.PRSTATUS] &^= 1
	if c.InterruptHook != nil && c.InterruptHook(cause) {
		// A Go-level kernel handled it (possibly switching contexts).
		c.pc = c.arch.PC
		return
	}
	ivec := c.arch.PR[isa.PRIVEC]
	if ivec == 0 {
		c.halted = true
		c.haltErr = fmt.Errorf("cpu: unhandled interrupt %d", cause)
		return
	}
	c.pc = ivec
	c.arch.PC = ivec
}

func leUint(data []byte) uint64 {
	var v uint64
	for i := len(data) - 1; i >= 0; i-- {
		v = v<<8 | uint64(data[i])
	}
	return v
}

// leBytes encodes v little-endian into the CPU's scratch buffer. The
// returned slice is only valid until the next call; both consumers
// (uncbuf.AddStore, core.CSB.Store) copy the bytes before returning.
func (c *CPU) leBytes(v uint64, size int) []byte {
	binary.LittleEndian.PutUint64(c.stBuf[:], v)
	return c.stBuf[:size]
}
