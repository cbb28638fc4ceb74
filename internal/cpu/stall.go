package cpu

import (
	"csbsim/internal/isa"
	"csbsim/internal/mem"
	"csbsim/internal/obs"
)

// This file implements CPI stall attribution: every cycle in which retire
// slot 0 commits nothing is charged to exactly one obs.StallCause by
// inspecting the post-retire pipeline state. Together with the commit,
// kernel-stall and halted buckets charged in Tick, the CPI stack's
// buckets provably sum to stats.Cycles — the invariant the observability
// tests enforce on every workload.
//
// The attribution follows the usual CPI-stack convention (gem5's O3
// pipeline viewer, top-down analysis): blame the oldest instruction. The
// ROB head is the only instruction whose stall provably costs a commit
// slot; everything younger may still be hidden by out-of-order execution.

// classifyCycle returns the bucket for the cycle retire() just finished.
func (c *CPU) classifyCycle() obs.StallCause {
	if c.retiredThisCycle {
		return obs.CauseCommit
	}
	if c.cycleCauseSet {
		return c.cycleCause
	}
	if len(c.rob) == 0 {
		switch {
		case len(c.fetchQ) > 0:
			// Decoded instructions are waiting; dispatch refills the ROB
			// this very cycle. Plain frontend latency.
			return obs.CauseFrontend
		case c.squashRefill:
			return obs.CauseBranchSquash
		case c.icacheMiss:
			return obs.CauseICacheMiss
		default:
			return obs.CauseFrontend
		}
	}
	head := c.rob[0]
	if head.faulted && head.done {
		// fault() halts the core this cycle; charge the bookkeeping
		// cycle rather than invent a bucket for a terminal event.
		return obs.CauseOther
	}
	if head.needsRetireExec() {
		return c.classifyRetireExec(head)
	}
	if head.done {
		// A completed head that did not commit can only have been
		// refused by the cache write buffer (commit returned false).
		return obs.CauseStoreBuf
	}
	if head.isMem() {
		return c.classifyMem(head)
	}
	// Functional-unit op still waiting on operands or latency.
	return obs.CauseExec
}

// classifyRetireExec attributes a stalled retire-executed head operation
// (uncached/combining accesses, swaps, MEMBAR).
func (c *CPU) classifyRetireExec(u *uop) obs.StallCause {
	if u.isMem() && !u.addrReady {
		switch {
		case u.walkStarted:
			return obs.CauseTLB
		case !u.agenDone && !u.addrSrcReady():
			return obs.CauseExec // address operand not ready
		default:
			return obs.CauseLSQ // AGU contention
		}
	}
	if u.isMem() && !u.dataSrcReady() {
		return obs.CauseExec // store data not ready
	}
	switch u.inst.Op {
	case isa.OpMEMBAR:
		return obs.CauseMembar
	case isa.OpSWAP:
		switch u.kind {
		case mem.KindCached:
			return obs.CauseDCache
		case mem.KindCombining:
			return obs.CauseCSB // conditional flush: CSB busy or latency
		default:
			if u.retPhase == 1 {
				return obs.CauseBusArb // uncached RMW read on the bus
			}
			return obs.CauseUncached
		}
	}
	switch u.inst.Op.Class() {
	case isa.ClassLoad:
		if u.retPhase == 1 {
			return obs.CauseBusArb // uncached load in flight on the bus
		}
		return obs.CauseUncached // uncached buffer full
	case isa.ClassStore:
		if u.kind == mem.KindCombining {
			return obs.CauseCSB
		}
		return obs.CauseUncached
	}
	// RDPR/WRPR/TRAP/IRET/HALT never stall at the head; anything that
	// still lands here is an unmodeled corner.
	return obs.CauseOther
}

// classifyMem attributes a stalled cached-memory head operation.
func (c *CPU) classifyMem(u *uop) obs.StallCause {
	switch {
	case !u.agenDone:
		if !u.addrSrcReady() {
			return obs.CauseExec // address operand dependence
		}
		return obs.CauseLSQ // waiting for an AGU
	case !u.addrReady:
		return obs.CauseTLB // hardware walk in progress
	case u.memWait:
		return obs.CauseDCache // fill in flight
	case u.executing:
		return obs.CauseDCache // cache access latency counting down
	case u.inst.Op.Class() == isa.ClassStore:
		return obs.CauseExec // waiting for store data
	default:
		return obs.CauseLSQ // load ready but blocked on ports/ordering/MSHRs
	}
}
