package asm

import "csbsim/internal/isa"

// regToImmOp maps register-form ALU opcodes to their immediate forms, used
// when the second source operand is an expression.
var regToImmOp = map[isa.Op]isa.Op{
	isa.OpADD: isa.OpADDI, isa.OpSUB: isa.OpSUBI, isa.OpAND: isa.OpANDI,
	isa.OpOR: isa.OpORI, isa.OpXOR: isa.OpXORI, isa.OpSLL: isa.OpSLLI,
	isa.OpSRL: isa.OpSRLI, isa.OpSRA: isa.OpSRAI, isa.OpMUL: isa.OpMULI,
	isa.OpADDCC: isa.OpADDCCI, isa.OpSUBCC: isa.OpSUBCCI,
	isa.OpANDCC: isa.OpANDCCI, isa.OpORCC: isa.OpORCCI,
}

// memAliases maps SPARC-style load/store aliases to SV9L opcodes.
var memAliases = map[string]isa.Op{
	"ld": isa.OpLDW, "st": isa.OpSTW,
	"ldd": isa.OpLDF, "std": isa.OpSTF, // doubleword FP, as in the paper's listing
	"ldub": isa.OpLDB, "lduh": isa.OpLDH, "lduw": isa.OpLDW,
	"fadd": isa.OpFADD, "fsub": isa.OpFSUB, "fmul": isa.OpFMUL, "fdiv": isa.OpFDIV,
	"fmov": isa.OpFMOV, "fneg": isa.OpFNEG, "fcmp": isa.OpFCMP,
}

// buildInst translates one parsed statement into 1–2 machine
// instructions, returned in a.inst: they are valid until the next call.
func (a *assembler) buildInst(st *stmt) ([]isa.Inst, error) {
	mn := st.mn
	if op, ok := memAliases[mn]; ok {
		return a.buildReal(st, op)
	}
	if op, ok := isa.OpByName(mn); ok && op != isa.OpBR {
		return a.buildReal(st, op)
	}
	if cond, ok := isa.CondByName(mn); ok {
		return a.buildBranch(st, cond)
	}
	return a.buildPseudo(st)
}

// one returns in as a one-instruction expansion in a.inst.
func (a *assembler) one(in isa.Inst) ([]isa.Inst, error) {
	a.inst[0] = in
	return a.inst[:1], nil
}

func (a *assembler) evalImm(st *stmt, e expr) (int64, error) {
	v, err := e.eval(a.symbols)
	if err != nil {
		return 0, a.errf(st.line, "%s: %v", st.mn, err)
	}
	return v, nil
}

func (a *assembler) wantOps(st *stmt, n int) error {
	if len(st.ops) != n {
		return a.errf(st.line, "%s: expected %d operands, got %d", st.mn, n, len(st.ops))
	}
	return nil
}

func (a *assembler) intReg(st *stmt, o operand) (isa.Reg, error) {
	if o.kind != opndReg {
		return 0, a.errf(st.line, "%s: expected integer register", st.mn)
	}
	return o.reg, nil
}

func (a *assembler) fpReg(st *stmt, o operand) (isa.FReg, error) {
	if o.kind != opndFReg {
		return 0, a.errf(st.line, "%s: expected fp register", st.mn)
	}
	return o.freg, nil
}

func (a *assembler) memOp(st *stmt, o operand) (isa.Reg, int64, error) {
	if o.kind != opndMem {
		return 0, 0, a.errf(st.line, "%s: expected memory operand [reg+imm]", st.mn)
	}
	disp, err := a.evalImm(st, o.e)
	if err != nil {
		return 0, 0, err
	}
	if !isa.ImmFits(disp) {
		return 0, 0, a.errf(st.line, "%s: displacement %d out of range", st.mn, disp)
	}
	return o.base, disp, nil
}

// buildReal handles every non-pseudo opcode.
func (a *assembler) buildReal(st *stmt, op isa.Op) ([]isa.Inst, error) {
	switch op.Class() {
	case isa.ClassInt, isa.ClassIntMul:
		if op == isa.OpLUI {
			if err := a.wantOps(st, 2); err != nil {
				return nil, err
			}
			v, err := a.evalImm(st, st.ops[0].e)
			if err != nil {
				return nil, err
			}
			rd, err := a.intReg(st, st.ops[1])
			if err != nil {
				return nil, err
			}
			return a.one(isa.Inst{Op: isa.OpLUI, Rd: rd, Imm: v})
		}
		// src1, src2|imm, rd
		if err := a.wantOps(st, 3); err != nil {
			return nil, err
		}
		rs1, err := a.intReg(st, st.ops[0])
		if err != nil {
			return nil, err
		}
		rd, err := a.intReg(st, st.ops[2])
		if err != nil {
			return nil, err
		}
		switch st.ops[1].kind {
		case opndReg:
			if op.HasImm() {
				return nil, a.errf(st.line, "%s: immediate form needs a constant", st.mn)
			}
			return a.one(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: st.ops[1].reg})
		case opndExpr:
			immOp := op
			if !op.HasImm() {
				var ok bool
				immOp, ok = regToImmOp[op]
				if !ok {
					return nil, a.errf(st.line, "%s: no immediate form", st.mn)
				}
			}
			v, err := a.evalImm(st, st.ops[1].e)
			if err != nil {
				return nil, err
			}
			return a.one(isa.Inst{Op: immOp, Rd: rd, Rs1: rs1, Imm: v})
		default:
			return nil, a.errf(st.line, "%s: bad second operand", st.mn)
		}

	case isa.ClassLoad:
		if err := a.wantOps(st, 2); err != nil {
			return nil, err
		}
		base, disp, err := a.memOp(st, st.ops[0])
		if err != nil {
			return nil, err
		}
		if op.FPRd() {
			f, err := a.fpReg(st, st.ops[1])
			if err != nil {
				return nil, err
			}
			return a.one(isa.Inst{Op: op, Rd: isa.Reg(f), Rs1: base, Imm: disp})
		}
		rd, err := a.intReg(st, st.ops[1])
		if err != nil {
			return nil, err
		}
		return a.one(isa.Inst{Op: op, Rd: rd, Rs1: base, Imm: disp})

	case isa.ClassStore:
		if err := a.wantOps(st, 2); err != nil {
			return nil, err
		}
		base, disp, err := a.memOp(st, st.ops[1])
		if err != nil {
			return nil, err
		}
		if op.FPRd() {
			f, err := a.fpReg(st, st.ops[0])
			if err != nil {
				return nil, err
			}
			return a.one(isa.Inst{Op: op, Rd: isa.Reg(f), Rs1: base, Imm: disp})
		}
		rd, err := a.intReg(st, st.ops[0])
		if err != nil {
			return nil, err
		}
		return a.one(isa.Inst{Op: op, Rd: rd, Rs1: base, Imm: disp})

	case isa.ClassSwap:
		if err := a.wantOps(st, 2); err != nil {
			return nil, err
		}
		base, disp, err := a.memOp(st, st.ops[0])
		if err != nil {
			return nil, err
		}
		rd, err := a.intReg(st, st.ops[1])
		if err != nil {
			return nil, err
		}
		return a.one(isa.Inst{Op: isa.OpSWAP, Rd: rd, Rs1: base, Imm: disp})

	case isa.ClassBranch:
		switch op {
		case isa.OpJAL:
			if err := a.wantOps(st, 2); err != nil {
				return nil, err
			}
			off, err := a.branchOffset(st, st.ops[0])
			if err != nil {
				return nil, err
			}
			rd, err := a.intReg(st, st.ops[1])
			if err != nil {
				return nil, err
			}
			return a.one(isa.Inst{Op: isa.OpJAL, Rd: rd, Imm: off})
		case isa.OpJALR:
			if err := a.wantOps(st, 3); err != nil {
				return nil, err
			}
			rs1, err := a.intReg(st, st.ops[0])
			if err != nil {
				return nil, err
			}
			v, err := a.evalImm(st, st.ops[1].e)
			if err != nil {
				return nil, err
			}
			rd, err := a.intReg(st, st.ops[2])
			if err != nil {
				return nil, err
			}
			return a.one(isa.Inst{Op: isa.OpJALR, Rd: rd, Rs1: rs1, Imm: v})
		}
		return nil, a.errf(st.line, "%s: unsupported branch form", st.mn)

	case isa.ClassFPU:
		switch op {
		case isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFDIV:
			if err := a.wantOps(st, 3); err != nil {
				return nil, err
			}
			s1, err := a.fpReg(st, st.ops[0])
			if err != nil {
				return nil, err
			}
			s2, err := a.fpReg(st, st.ops[1])
			if err != nil {
				return nil, err
			}
			d, err := a.fpReg(st, st.ops[2])
			if err != nil {
				return nil, err
			}
			return a.one(isa.Inst{Op: op, Rd: isa.Reg(d), Rs1: isa.Reg(s1), Rs2: isa.Reg(s2)})
		case isa.OpFMOV, isa.OpFNEG:
			if err := a.wantOps(st, 2); err != nil {
				return nil, err
			}
			s, err := a.fpReg(st, st.ops[0])
			if err != nil {
				return nil, err
			}
			d, err := a.fpReg(st, st.ops[1])
			if err != nil {
				return nil, err
			}
			return a.one(isa.Inst{Op: op, Rd: isa.Reg(d), Rs1: isa.Reg(s)})
		case isa.OpFITOD, isa.OpMOVR2F:
			if err := a.wantOps(st, 2); err != nil {
				return nil, err
			}
			s, err := a.intReg(st, st.ops[0])
			if err != nil {
				return nil, err
			}
			d, err := a.fpReg(st, st.ops[1])
			if err != nil {
				return nil, err
			}
			return a.one(isa.Inst{Op: op, Rd: isa.Reg(d), Rs1: s})
		case isa.OpFDTOI, isa.OpMOVF2R:
			if err := a.wantOps(st, 2); err != nil {
				return nil, err
			}
			s, err := a.fpReg(st, st.ops[0])
			if err != nil {
				return nil, err
			}
			d, err := a.intReg(st, st.ops[1])
			if err != nil {
				return nil, err
			}
			return a.one(isa.Inst{Op: op, Rd: d, Rs1: isa.Reg(s)})
		case isa.OpFCMP:
			if err := a.wantOps(st, 2); err != nil {
				return nil, err
			}
			s1, err := a.fpReg(st, st.ops[0])
			if err != nil {
				return nil, err
			}
			s2, err := a.fpReg(st, st.ops[1])
			if err != nil {
				return nil, err
			}
			return a.one(isa.Inst{Op: op, Rs1: isa.Reg(s1), Rs2: isa.Reg(s2)})
		}

	case isa.ClassBarrier:
		if err := a.wantOps(st, 0); err != nil {
			return nil, err
		}
		return a.one(isa.Inst{Op: isa.OpMEMBAR})

	case isa.ClassSystem:
		switch op {
		case isa.OpNOP, isa.OpHALT, isa.OpIRET:
			if err := a.wantOps(st, 0); err != nil {
				return nil, err
			}
			return a.one(isa.Inst{Op: op})
		case isa.OpTRAP:
			if err := a.wantOps(st, 1); err != nil {
				return nil, err
			}
			v, err := a.evalImm(st, st.ops[0].e)
			if err != nil {
				return nil, err
			}
			return a.one(isa.Inst{Op: isa.OpTRAP, Imm: v})
		case isa.OpRDPR:
			if err := a.wantOps(st, 2); err != nil {
				return nil, err
			}
			if st.ops[0].kind != opndPR {
				return nil, a.errf(st.line, "rdpr: expected privileged register")
			}
			rd, err := a.intReg(st, st.ops[1])
			if err != nil {
				return nil, err
			}
			return a.one(isa.Inst{Op: isa.OpRDPR, Rd: rd, Imm: int64(st.ops[0].pr)})
		case isa.OpWRPR:
			if err := a.wantOps(st, 2); err != nil {
				return nil, err
			}
			rs, err := a.intReg(st, st.ops[0])
			if err != nil {
				return nil, err
			}
			if st.ops[1].kind != opndPR {
				return nil, a.errf(st.line, "wrpr: expected privileged register")
			}
			return a.one(isa.Inst{Op: isa.OpWRPR, Rs1: rs, Imm: int64(st.ops[1].pr)})
		}
	}
	return nil, a.errf(st.line, "unsupported mnemonic %q", st.mn)
}

func (a *assembler) buildBranch(st *stmt, cond isa.Cond) ([]isa.Inst, error) {
	if err := a.wantOps(st, 1); err != nil {
		return nil, err
	}
	off, err := a.branchOffset(st, st.ops[0])
	if err != nil {
		return nil, err
	}
	return a.one(isa.Inst{Op: isa.OpBR, Cond: cond, Imm: off})
}

// branchOffset converts a target operand (label or absolute expression) to
// an instruction-count offset relative to the *next* instruction.
func (a *assembler) branchOffset(st *stmt, o operand) (int64, error) {
	if o.kind != opndExpr {
		return 0, a.errf(st.line, "%s: expected branch target", st.mn)
	}
	// Pure literals (e.g. "bnz -4") are taken as offsets directly; anything
	// referencing a symbol is an absolute target address.
	hasSym := o.e.hasSym()
	v, err := a.evalImm(st, o.e)
	if err != nil {
		return 0, err
	}
	if !hasSym {
		return v, nil
	}
	next := int64(st.addr) + int64(isa.InstBytes)
	delta := v - next
	if delta%isa.InstBytes != 0 {
		return 0, a.errf(st.line, "%s: misaligned branch target %#x", st.mn, v)
	}
	return delta / isa.InstBytes, nil
}

func (a *assembler) buildPseudo(st *stmt) ([]isa.Inst, error) {
	switch st.mn {
	case "set":
		if err := a.wantOps(st, 2); err != nil {
			return nil, err
		}
		v, err := a.evalImm(st, st.ops[0].e)
		if err != nil {
			return nil, err
		}
		rd, err := a.intReg(st, st.ops[1])
		if err != nil {
			return nil, err
		}
		return expandSet(v, rd, st, a)
	case "mov":
		if err := a.wantOps(st, 2); err != nil {
			return nil, err
		}
		rd, err := a.intReg(st, st.ops[1])
		if err != nil {
			return nil, err
		}
		switch st.ops[0].kind {
		case opndReg:
			return a.one(isa.Inst{Op: isa.OpOR, Rd: rd, Rs1: st.ops[0].reg, Rs2: isa.RegZero})
		case opndExpr:
			v, err := a.evalImm(st, st.ops[0].e)
			if err != nil {
				return nil, err
			}
			if !isa.ImmFits(v) {
				return nil, a.errf(st.line, "mov: %d out of range (use set)", v)
			}
			return a.one(isa.Inst{Op: isa.OpADDI, Rd: rd, Rs1: isa.RegZero, Imm: v})
		}
		return nil, a.errf(st.line, "mov: bad source operand")
	case "cmp":
		if err := a.wantOps(st, 2); err != nil {
			return nil, err
		}
		rs1, err := a.intReg(st, st.ops[0])
		if err != nil {
			return nil, err
		}
		switch st.ops[1].kind {
		case opndReg:
			return a.one(isa.Inst{Op: isa.OpSUBCC, Rd: isa.RegZero, Rs1: rs1, Rs2: st.ops[1].reg})
		case opndExpr:
			v, err := a.evalImm(st, st.ops[1].e)
			if err != nil {
				return nil, err
			}
			return a.one(isa.Inst{Op: isa.OpSUBCCI, Rd: isa.RegZero, Rs1: rs1, Imm: v})
		}
		return nil, a.errf(st.line, "cmp: bad second operand")
	case "tst":
		if err := a.wantOps(st, 1); err != nil {
			return nil, err
		}
		rs, err := a.intReg(st, st.ops[0])
		if err != nil {
			return nil, err
		}
		return a.one(isa.Inst{Op: isa.OpORCC, Rd: isa.RegZero, Rs1: rs, Rs2: isa.RegZero})
	case "clr":
		if err := a.wantOps(st, 1); err != nil {
			return nil, err
		}
		rd, err := a.intReg(st, st.ops[0])
		if err != nil {
			return nil, err
		}
		return a.one(isa.Inst{Op: isa.OpOR, Rd: rd, Rs1: isa.RegZero, Rs2: isa.RegZero})
	case "inc", "dec":
		op := isa.OpADDI
		if st.mn == "dec" {
			op = isa.OpSUBI
		}
		switch len(st.ops) {
		case 1:
			rd, err := a.intReg(st, st.ops[0])
			if err != nil {
				return nil, err
			}
			return a.one(isa.Inst{Op: op, Rd: rd, Rs1: rd, Imm: 1})
		case 2:
			v, err := a.evalImm(st, st.ops[0].e)
			if err != nil {
				return nil, err
			}
			rd, err := a.intReg(st, st.ops[1])
			if err != nil {
				return nil, err
			}
			return a.one(isa.Inst{Op: op, Rd: rd, Rs1: rd, Imm: v})
		}
		return nil, a.errf(st.line, "%s: expected [amount,] register", st.mn)
	case "neg":
		if err := a.wantOps(st, 2); err != nil {
			return nil, err
		}
		rs, err := a.intReg(st, st.ops[0])
		if err != nil {
			return nil, err
		}
		rd, err := a.intReg(st, st.ops[1])
		if err != nil {
			return nil, err
		}
		return a.one(isa.Inst{Op: isa.OpSUB, Rd: rd, Rs1: isa.RegZero, Rs2: rs})
	case "not":
		if err := a.wantOps(st, 2); err != nil {
			return nil, err
		}
		rs, err := a.intReg(st, st.ops[0])
		if err != nil {
			return nil, err
		}
		rd, err := a.intReg(st, st.ops[1])
		if err != nil {
			return nil, err
		}
		return a.one(isa.Inst{Op: isa.OpXORI, Rd: rd, Rs1: rs, Imm: -1})
	case "call":
		if err := a.wantOps(st, 1); err != nil {
			return nil, err
		}
		if st.ops[0].kind == opndReg {
			return a.one(isa.Inst{Op: isa.OpJALR, Rd: isa.RegRA, Rs1: st.ops[0].reg})
		}
		off, err := a.branchOffset(st, st.ops[0])
		if err != nil {
			return nil, err
		}
		return a.one(isa.Inst{Op: isa.OpJAL, Rd: isa.RegRA, Imm: off})
	case "jmp":
		if err := a.wantOps(st, 1); err != nil {
			return nil, err
		}
		if st.ops[0].kind == opndReg {
			return a.one(isa.Inst{Op: isa.OpJALR, Rd: isa.RegZero, Rs1: st.ops[0].reg})
		}
		return nil, a.errf(st.line, "jmp: expected register (use ba for labels)")
	case "ret":
		if err := a.wantOps(st, 0); err != nil {
			return nil, err
		}
		return a.one(isa.Inst{Op: isa.OpJALR, Rd: isa.RegZero, Rs1: isa.RegRA})
	}
	return nil, a.errf(st.line, "unknown mnemonic %q", st.mn)
}

// expandSet produces the fixed two-instruction expansion of `set value, rd`.
func expandSet(v int64, rd isa.Reg, st *stmt, a *assembler) ([]isa.Inst, error) {
	switch {
	case v >= 0 && v < 1<<32:
		a.inst = [2]isa.Inst{
			{Op: isa.OpLUI, Rd: rd, Imm: v >> 13},
			{Op: isa.OpORI, Rd: rd, Rs1: rd, Imm: v & 0x1fff},
		}
		return a.inst[:], nil
	case isa.ImmFits(v):
		a.inst = [2]isa.Inst{
			{Op: isa.OpADDI, Rd: rd, Rs1: isa.RegZero, Imm: v},
			{Op: isa.OpORI, Rd: rd, Rs1: rd, Imm: 0},
		}
		return a.inst[:], nil
	default:
		return nil, a.errf(st.line, "set: value %d not representable (need 0..2^32-1 or a 14-bit signed value)", v)
	}
}
