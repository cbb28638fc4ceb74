package cpu

import "csbsim/internal/isa"

// The decoded-instruction cache memoizes fetch's RAM read + decode per PC:
// a direct-mapped, PC-tagged array consulted before touching memory. The
// simulated programs are static, so a hit is always correct as long as the
// cache is invalidated whenever instruction bytes could have changed:
//
//   - wholesale (a generation bump) on Start, Reset, RestoreState and
//     FlushPipeline — the points where a program is (re)loaded or the
//     kernel has mutated state behind the pipeline's back;
//   - per line on CPU-initiated RAM writes (cached store commit, cached
//     swap), in case a program writes over its own text.
//
// DMA writes are NOT snooped, matching the I-cache model (which also never
// observes device writes): a program that DMA'd over its own code was
// already incoherent before this cache existed.
//
// The array starts small, since most programs are short loops, and grows
// x4 (up to decCacheMax) the first time a miss would evict a live entry
// for another PC. Growth only costs refetches, never a result.
//
// An entry also keeps what the pipeline asks of the instruction at every
// stage (after the static-instruction flags of gem5's O3 CPU): a flag
// word, computed once from the isa predicates when the entry is filled,
// and the static next PC. Fetch copies both into the uop, and dispatch,
// rename, issue and retire test bits instead of re-deriving them.

const (
	decCacheMin = 64   // entries; instructions are 4-byte aligned
	decCacheMax = 4096 // entries
)

type decEntry struct {
	pc   uint64
	gen  uint32
	fl   opFlags
	inst isa.Inst
	// next is the PC fetch continues at: a JAL's or BR's target (fetch
	// takes a conditional BR only when the predictor says so), pc+4 for
	// BR on N and every other op, pc for HALT and IRET (fetch stops and
	// retire redirects if needed) and 0 for JALR (fetch stops until it
	// resolves).
	next uint64
}

// opFlags are an instruction's static properties, one bit each.
type opFlags uint16

const (
	flBranch     opFlags = 1 << iota // BR, JAL, JALR: a branch slot
	flCondBranch                     // BR on a condition: predicted at fetch, reads the condition codes
	flStopFetch                      // JALR, HALT, IRET: fetch stops after it
	flMem                            // loads, stores and swap: an LSQ slot
	flStore                          // stores and swap, for load ordering
	flFPU                            // issues to an FP unit
	flIssue                          // goes through the issue stage
	flRetireExec                     // executes at the ROB head whatever its address
	flFPRs1                          // Rs1 names an FP source
	flFPRs2                          // Rs2 names an FP source
	flIntRs1                         // Rs1 names an integer source
	flIntRs2                         // Rs2 names an integer source
	flReadsRd                        // Rd is a store-data source
	flWritesInt                      // Rd is an integer destination
	flWritesFP                       // Rd is an FP destination
	flWritesCC                       // writes the integer condition codes
)

// instFlags derives the flag word of in from the isa predicates.
func instFlags(in *isa.Inst) opFlags {
	var f opFlags
	set := func(cond bool, bit opFlags) {
		if cond {
			f |= bit
		}
	}
	op := in.Op
	cls := op.Class()
	set(in.IsBranch(), flBranch)
	set(op == isa.OpBR && in.Cond != isa.CondA && in.Cond != isa.CondN, flCondBranch)
	set(op == isa.OpJALR || op == isa.OpHALT || op == isa.OpIRET, flStopFetch)
	set(op.IsMem(), flMem)
	set(op.IsStore(), flStore)
	set(cls == isa.ClassFPU, flFPU)
	set(cls != isa.ClassBarrier && cls != isa.ClassSystem, flIssue)
	switch op {
	case isa.OpMEMBAR, isa.OpRDPR, isa.OpWRPR, isa.OpIRET, isa.OpTRAP, isa.OpHALT, isa.OpSWAP:
		f |= flRetireExec
	}
	set(op.FPRs1(), flFPRs1)
	set(op.FPRs2(), flFPRs2)
	set(in.ReadsIntRs1(), flIntRs1)
	set(in.ReadsIntRs2(), flIntRs2)
	set(in.ReadsRdAsSource(), flReadsRd)
	set(in.WritesIntReg(), flWritesInt)
	set(in.WritesFPReg(), flWritesFP)
	set(writesCC(op), flWritesCC)
	return f
}

// staticNext returns decEntry.next for in at pc.
func staticNext(in *isa.Inst, pc uint64) uint64 {
	switch in.Op {
	case isa.OpBR:
		if in.Cond == isa.CondN {
			return pc + 4
		}
		return pc + 4 + uint64(int64(4)*in.Imm)
	case isa.OpJAL:
		return pc + 4 + uint64(int64(4)*in.Imm)
	case isa.OpJALR:
		return 0
	case isa.OpHALT, isa.OpIRET:
		return pc
	}
	return pc + 4
}

// decSlot returns the cache entry pc maps to.
func (c *CPU) decSlot(pc uint64) *decEntry {
	return &c.decCache[(pc>>2)&uint64(len(c.decCache)-1)]
}

// decode returns the decode-cache entry of the instruction at pc, filling
// it on a miss. The entry is valid until the next decode; callers copy
// from it rather than returning the instruction by value, which would
// round-trip it through the stack.
func (c *CPU) decode(pc uint64) *decEntry {
	e := c.decSlot(pc)
	if e.gen == c.decGen && e.pc == pc {
		return e
	}
	if e.gen == c.decGen && len(c.decCache) < decCacheMax {
		c.growDecodeCache()
		e = c.decSlot(pc)
	}
	e.pc, e.gen = pc, c.decGen
	e.inst = isa.Decode(uint32(c.ram.ReadUint(pc, 4)))
	e.fl = instFlags(&e.inst)
	e.next = staticNext(&e.inst, pc)
	return e
}

// growDecodeCache quadruples the decode cache and keeps its live entries:
// each keeps its index bits, so no two collide in the larger array. A
// reset core grows back into the array it grew before: the slots past
// the old length hold only older generations, and a live entry moves up
// past the old length or stays, so the walk never overwrites one it has
// yet to visit.
func (c *CPU) growDecodeCache() {
	old, n := c.decCache, 4*len(c.decCache)
	if cap(old) < n {
		c.decCache = make([]decEntry, n)
		for _, e := range old {
			if e.gen == c.decGen {
				*c.decSlot(e.pc) = e
			}
		}
		return
	}
	c.decCache = old[:n]
	for i := range old {
		if e := &c.decCache[i]; e.gen == c.decGen {
			if s := c.decSlot(e.pc); s != e {
				*s = *e
				e.gen = 0
			}
		}
	}
}

// invalidateDecodeCache drops every cached decode in O(1) by bumping the
// generation tag.
func (c *CPU) invalidateDecodeCache() {
	c.decGen++
}

// decInvalidate drops cached decodes overlapping a CPU store to RAM.
func (c *CPU) decInvalidate(pa uint64, size int) {
	for a := pa &^ 3; a < pa+uint64(size); a += 4 {
		e := c.decSlot(a)
		if e.pc == a {
			e.gen = 0
		}
	}
}
