package cpu

import (
	"csbsim/internal/isa"
	"csbsim/internal/mem"
)

// uop is one in-flight instruction: a reorder-buffer entry in the unified
// dispatch queue. Source operands are either captured values (producer nil)
// or references to older uops whose results are read once done.
type uop struct {
	seq  uint64
	inst isa.Inst
	pc   uint64
	// predNext is the PC fetch continued at (the prediction for branches).
	predNext uint64

	// Renamed sources. s1/s2 are the register sources, sd the store-data
	// source (the Rd field of stores and swap), cc the condition-code
	// producer for conditional branches and nothing else.
	s1, s2, sd *uop
	v1, v2, vd uint64
	ccProd     *uop

	// Wakeup list (see park): waiters heads the list of uops parked on
	// this one until it is done, and wnext links that list.
	waiters *uop
	wnext   *uop

	result uint64

	// Memory state.
	va, pa uint64

	// Lifecycle stamps in CPU cycles (0 = stage not reached/recorded).
	// Cheap to set unconditionally; carried to the retire observers for
	// pipeline tracing.
	fetchC    uint64
	dispatchC uint64
	issueC    uint64
	completeC uint64

	// Branch state.
	actualNext uint64

	// Recycling state (see the free list in cpu.go). freeStamp is the
	// global sequence number at retirement — every uop that could still
	// hold a reference has seq <= freeStamp. pins counts outstanding callbacks
	// (cache fills, uncached-load completions) that captured this uop; a
	// pinned uop is never recycled (it is left to the GC instead).
	freeStamp uint64
	// fillDone is u's cache-fill callback, built on the slot's first
	// missing load (fillCallback) and kept while it is pooled.
	fillDone func()

	// The narrow fields follow the word-sized ones, so no padding sits
	// between fields and the uop that newUop zeroes for every fetched
	// instruction stays within 256 bytes (TestUopSize).
	fl    opFlags   // inst's static flags, from the decode cache
	ccVal isa.Flags // the condition codes at rename, when ccProd is nil
	flags isa.Flags // the condition codes this uop sets
	kind  mem.Kind

	remaining   int32 // execute or retire-phase cycles left
	translating int32 // remaining TLB-walk cycles (0 when not walking)
	retPhase    int32 // retire-phase progress for retire-executed operations
	pins        int32

	// Execution state.
	issued    bool
	executing bool
	done      bool // result available to dependents
	dead      bool // squashed

	// Memory state.
	agenDone    bool
	walkStarted bool
	addrReady   bool
	faulted     bool
	memIssued   bool // cache access started
	memWait     bool // waiting for a cache fill

	resolved bool // branch state
}

// isMem reports whether u accesses memory (and holds an LSQ slot).
func (u *uop) isMem() bool { return u.fl&flMem != 0 }

// isBranch reports whether u can redirect fetch (and holds a branch slot).
func (u *uop) isBranch() bool { return u.fl&flBranch != 0 }

// needsRetireExec reports whether the operation's effect happens at the
// head of the ROB rather than in the execute stage: everything with side
// effects that must be in-order, non-speculative and exactly-once. That
// is barriers, privileged ops and swap, and any other memory access that
// did not translate to a cached page.
func (u *uop) needsRetireExec() bool {
	return u.fl&flRetireExec != 0 || u.fl&flMem != 0 && u.kind != mem.KindCached
}

// hasIssueStage reports whether u goes through the issue stage, the
// condition for joining the issue queue at dispatch. Barriers and system
// ops execute at retire; NOP and invalid ops (both ClassSystem) are
// already done at rename.
func (u *uop) hasIssueStage() bool { return u.fl&flIssue != 0 }

// blocker returns a source producer (register, store-data or condition
// codes) whose result is not available yet, or nil when all are.
func (u *uop) blocker() *uop {
	switch {
	case u.s1 != nil && !u.s1.done:
		return u.s1
	case u.s2 != nil && !u.s2.done:
		return u.s2
	case u.sd != nil && !u.sd.done:
		return u.sd
	case u.ccProd != nil && !u.ccProd.done:
		return u.ccProd
	}
	return nil
}

// addrSrcReady reports whether the address source (rs1) is available.
func (u *uop) addrSrcReady() bool {
	return u.s1 == nil || u.s1.done
}

// dataSrcReady reports whether the store-data source is available.
func (u *uop) dataSrcReady() bool {
	return u.sd == nil || u.sd.done
}

// val1, val2, vald and cc return operand values; producers must be done.
func (u *uop) val1() uint64 {
	if u.s1 != nil {
		return u.s1.result
	}
	return u.v1
}

func (u *uop) val2() uint64 {
	if u.s2 != nil {
		return u.s2.result
	}
	return u.v2
}

func (u *uop) vald() uint64 {
	if u.sd != nil {
		return u.sd.result
	}
	return u.vd
}

func (u *uop) cc() isa.Flags {
	if u.ccProd != nil {
		return u.ccProd.flags
	}
	return u.ccVal
}
