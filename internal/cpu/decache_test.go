package cpu

import (
	"testing"

	"csbsim/internal/isa"
	"csbsim/internal/mem"
)

// FuzzDecodeFlags: for any instruction word at any PC, the decode cache's
// entry holds isa.Decode's instruction, a flag word whose every bit
// equals the isa predicate it caches, and the next PC fetch predicted
// from the instruction before the flags existed.
func FuzzDecodeFlags(f *testing.F) {
	f.Add(isa.MustEncode(isa.Inst{Op: isa.OpADDI, Rd: 1, Rs1: 2, Imm: -8192}), uint16(0))
	f.Fuzz(func(t *testing.T, w uint32, slot uint16) {
		c := &CPU{ram: mem.NewMemory(), decCache: make([]decEntry, decCacheMin), decGen: 1}
		pc := 0x10000 + 4*uint64(slot)
		c.ram.WriteUint(pc, 4, uint64(w))
		e := c.decode(pc)
		in := isa.Decode(w)
		if e.pc != pc || e.inst != in {
			t.Fatalf("decode(%#x) of %#08x = %+v at %#x, want %+v", pc, w, e.inst, e.pc, in)
		}
		op, cls := in.Op, in.Op.Class()
		for _, b := range []struct {
			name string
			bit  opFlags
			want bool
		}{
			{"branch", flBranch, in.IsBranch()},
			{"conditional branch", flCondBranch, op == isa.OpBR && in.Cond != isa.CondA && in.Cond != isa.CondN},
			{"stops fetch", flStopFetch, op == isa.OpJALR || op == isa.OpHALT || op == isa.OpIRET},
			{"mem", flMem, op.IsMem()},
			{"store", flStore, op.IsStore()},
			{"FPU", flFPU, cls == isa.ClassFPU},
			{"issue stage", flIssue, cls != isa.ClassBarrier && cls != isa.ClassSystem},
			{"FP rs1", flFPRs1, op.FPRs1()},
			{"FP rs2", flFPRs2, op.FPRs2()},
			{"int rs1", flIntRs1, in.ReadsIntRs1()},
			{"int rs2", flIntRs2, in.ReadsIntRs2()},
			{"reads rd", flReadsRd, in.ReadsRdAsSource()},
			{"writes int", flWritesInt, in.WritesIntReg()},
			{"writes FP", flWritesFP, in.WritesFPReg()},
			{"writes CC", flWritesCC, writesCC(op)},
		} {
			if got := e.fl&b.bit != 0; got != b.want {
				t.Errorf("%+v: %s flag = %v, want %v", in, b.name, got, b.want)
			}
		}
		for _, k := range []mem.Kind{mem.KindCached, mem.KindUncached, mem.KindCombining} {
			u := uop{inst: in, fl: e.fl, kind: k}
			if got, want := u.needsRetireExec(), retireExecByOp(&in, k); got != want {
				t.Errorf("%+v on a %v page: needsRetireExec = %v, want %v", in, k, got, want)
			}
		}
		if want := nextByOp(&in, pc); e.next != want {
			t.Errorf("%+v at %#x: next PC %#x, want %#x", in, pc, e.next, want)
		}
	})
}

// retireExecByOp is needsRetireExec derived from the opcode, as the
// pipeline did before the flag word.
func retireExecByOp(in *isa.Inst, k mem.Kind) bool {
	switch in.Op {
	case isa.OpMEMBAR, isa.OpRDPR, isa.OpWRPR, isa.OpIRET, isa.OpTRAP, isa.OpHALT, isa.OpSWAP:
		return true
	}
	return in.Op.IsMem() && k != mem.KindCached
}

// nextByOp is the next PC fetch predicted for in at pc before the flag
// word, with every conditional branch predicted taken.
func nextByOp(in *isa.Inst, pc uint64) uint64 {
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
