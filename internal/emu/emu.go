// Package emu is a plain sequential interpreter for SV9L programs. It
// shares nothing with the out-of-order model in internal/cpu beyond the
// ISA definition, which makes it a useful differential-testing oracle:
// any program without timing-dependent behaviour must leave both
// implementations in identical architectural state.
//
// The emulator executes everything as if memory were flat and cached; it
// does not model the uncached buffer, the CSB or devices. Address ranges
// marked combining (MarkCombining) get the fault-free reference semantics
// of a conditional flush: a swap there always "succeeds" — the source
// register is returned unchanged and no memory is exchanged — so guest
// retry loops written against the CSB protocol terminate immediately,
// and a faulted machine run must end in this oracle's final state.
package emu

import (
	"fmt"
	"math"

	"csbsim/internal/asm"
	"csbsim/internal/isa"
	"csbsim/internal/mem"
)

// Emulator is the architectural state of the reference interpreter.
type Emulator struct {
	R  [isa.NumRegs]uint64
	F  [isa.NumFRegs]uint64
	CC isa.Flags
	PC uint64

	Mem    *mem.Memory
	halted bool
	steps  uint64

	maxSteps  uint64
	combining []combRange

	// Trap, if set, handles OpTRAP codes; returning false halts with an
	// error. The default mimics the machine's console traps into Console.
	Trap    func(code int64) bool
	Console []byte
}

type combRange struct{ base, end uint64 }

// DefaultMaxSteps is the Run budget when WithMaxSteps is not given:
// generous enough for every difftest and example guest, small enough
// that a livelocked guest fails in well under a second.
const DefaultMaxSteps = 10_000_000

// Option configures an Emulator at construction.
type Option func(*Emulator)

// WithMaxSteps sets the Run instruction budget. A run that exhausts it
// fails with a *StepLimitError, letting callers distinguish "the guest
// livelocked" from "my budget was too small" and raise the budget.
func WithMaxSteps(n uint64) Option {
	return func(e *Emulator) { e.maxSteps = n }
}

// WithCombining marks [base, base+size) as combining space at
// construction (see MarkCombining).
func WithCombining(base, size uint64) Option {
	return func(e *Emulator) { e.MarkCombining(base, size) }
}

// New creates an emulator with the program loaded into fresh memory.
func New(p *asm.Program, opts ...Option) (*Emulator, error) {
	m := mem.NewMemory()
	base, data, err := p.Bytes()
	if err != nil {
		return nil, err
	}
	m.Write(base, data)
	e := &Emulator{Mem: m, PC: p.Entry, maxSteps: DefaultMaxSteps}
	e.Trap = e.defaultTrap
	for _, o := range opts {
		o(e)
	}
	return e, nil
}

// MarkCombining marks [base, base+size) as uncached-combining space: a
// swap addressed there models an always-successful conditional flush
// (the fault-free reference of §3.1) — the source register is returned
// unchanged and memory is not exchanged. Plain stores still write the
// flat memory, which is exactly where the machine's CSB line bursts
// land, so final memory is comparable between the two.
func (e *Emulator) MarkCombining(base, size uint64) {
	e.combining = append(e.combining, combRange{base: base, end: base + size})
}

func (e *Emulator) isCombining(addr uint64) bool {
	for _, r := range e.combining {
		if addr >= r.base && addr < r.end {
			return true
		}
	}
	return false
}

// StepLimitError reports a Run that exhausted its instruction budget
// (WithMaxSteps) without halting: either the guest livelocked, or the
// budget was too small for the workload.
type StepLimitError struct {
	Limit uint64
	PC    uint64
}

func (e *StepLimitError) Error() string {
	return fmt.Sprintf("emu: step limit %d reached at pc %#x (guest livelock, or raise the budget with WithMaxSteps)",
		e.Limit, e.PC)
}

func (e *Emulator) defaultTrap(code int64) bool {
	switch code {
	case 1:
		e.Console = append(e.Console, byte(e.R[8]))
		return true
	case 2:
		e.Console = append(e.Console, []byte(fmt.Sprintf("%d", int64(e.R[8])))...)
		return true
	case 3:
		e.Console = append(e.Console, []byte(fmt.Sprintf("%#x", e.R[8]))...)
		return true
	}
	return false
}

// Halted reports whether the program has executed HALT.
func (e *Emulator) Halted() bool { return e.halted }

// Steps returns the number of instructions executed.
func (e *Emulator) Steps() uint64 { return e.steps }

// Run executes until HALT or the configured step budget (WithMaxSteps,
// DefaultMaxSteps otherwise) is exhausted, which fails with a typed
// *StepLimitError.
func (e *Emulator) Run() error {
	for i := uint64(0); i < e.maxSteps; i++ {
		if e.halted {
			return nil
		}
		if err := e.Step(); err != nil {
			return err
		}
	}
	if e.halted {
		return nil
	}
	return &StepLimitError{Limit: e.maxSteps, PC: e.PC}
}

func (e *Emulator) reg(r isa.Reg) uint64 {
	if r == 0 {
		return 0
	}
	return e.R[r]
}

func (e *Emulator) setReg(r isa.Reg, v uint64) {
	if r != 0 {
		e.R[r] = v
	}
}

// Step executes one instruction.
func (e *Emulator) Step() error {
	word := uint32(e.Mem.ReadUint(e.PC, 4))
	in := isa.Decode(word)
	e.steps++
	next := e.PC + 4

	a := e.reg(in.Rs1)
	b := e.reg(in.Rs2)
	if in.Op.HasImm() {
		b = uint64(in.Imm)
	}
	fa := e.F[in.Rs1&31]
	fb := e.F[in.Rs2&31]

	switch in.Op {
	case isa.OpInvalid:
		return fmt.Errorf("emu: illegal instruction %#08x at %#x", word, e.PC)

	case isa.OpADD, isa.OpADDI:
		e.setReg(in.Rd, a+b)
	case isa.OpSUB, isa.OpSUBI:
		e.setReg(in.Rd, a-b)
	case isa.OpAND, isa.OpANDI:
		e.setReg(in.Rd, a&b)
	case isa.OpOR, isa.OpORI:
		e.setReg(in.Rd, a|b)
	case isa.OpXOR, isa.OpXORI:
		e.setReg(in.Rd, a^b)
	case isa.OpSLL, isa.OpSLLI:
		e.setReg(in.Rd, a<<(b&63))
	case isa.OpSRL, isa.OpSRLI:
		e.setReg(in.Rd, a>>(b&63))
	case isa.OpSRA, isa.OpSRAI:
		e.setReg(in.Rd, uint64(int64(a)>>(b&63)))
	case isa.OpMUL, isa.OpMULI:
		e.setReg(in.Rd, a*b)

	case isa.OpADDCC, isa.OpADDCCI:
		r := a + b
		e.CC = isa.FlagsFromAdd(a, b, r)
		e.setReg(in.Rd, r)
	case isa.OpSUBCC, isa.OpSUBCCI:
		r := a - b
		e.CC = isa.FlagsFromSub(a, b, r)
		e.setReg(in.Rd, r)
	case isa.OpANDCC, isa.OpANDCCI:
		r := a & b
		e.CC = isa.FlagsFromLogic(r)
		e.setReg(in.Rd, r)
	case isa.OpORCC, isa.OpORCCI:
		r := a | b
		e.CC = isa.FlagsFromLogic(r)
		e.setReg(in.Rd, r)

	case isa.OpLUI:
		e.setReg(in.Rd, uint64(in.Imm)<<13)

	case isa.OpBR:
		if in.Cond.Eval(e.CC) {
			next = e.PC + 4 + uint64(4*in.Imm)
		}
	case isa.OpJAL:
		e.setReg(in.Rd, e.PC+4)
		next = e.PC + 4 + uint64(4*in.Imm)
	case isa.OpJALR:
		e.setReg(in.Rd, e.PC+4)
		next = (a + uint64(in.Imm)) &^ 3

	case isa.OpLDB, isa.OpLDH, isa.OpLDW, isa.OpLDX:
		addr := a + uint64(in.Imm)
		e.setReg(in.Rd, e.Mem.ReadUint(addr, in.Op.MemBytes()))
	case isa.OpSTB, isa.OpSTH, isa.OpSTW, isa.OpSTX:
		addr := a + uint64(in.Imm)
		e.Mem.WriteUint(addr, in.Op.MemBytes(), e.reg(in.Rd))
	case isa.OpLDF:
		addr := a + uint64(in.Imm)
		e.F[in.Rd&31] = e.Mem.ReadUint(addr, 8)
	case isa.OpSTF:
		addr := a + uint64(in.Imm)
		e.Mem.WriteUint(addr, 8, e.F[in.Rd&31])
	case isa.OpSWAP:
		addr := a + uint64(in.Imm)
		if e.isCombining(addr) {
			// Conditional flush, fault-free reference semantics (§3.1):
			// the flush always succeeds, the source register is returned
			// unchanged, and combining space is not a memory exchange.
			break
		}
		old := e.Mem.ReadUint(addr, 8)
		e.Mem.WriteUint(addr, 8, e.reg(in.Rd))
		e.setReg(in.Rd, old)

	case isa.OpMEMBAR, isa.OpNOP:
		// nothing

	case isa.OpFADD:
		e.F[in.Rd&31] = math.Float64bits(math.Float64frombits(fa) + math.Float64frombits(fb))
	case isa.OpFSUB:
		e.F[in.Rd&31] = math.Float64bits(math.Float64frombits(fa) - math.Float64frombits(fb))
	case isa.OpFMUL:
		e.F[in.Rd&31] = math.Float64bits(math.Float64frombits(fa) * math.Float64frombits(fb))
	case isa.OpFDIV:
		e.F[in.Rd&31] = math.Float64bits(math.Float64frombits(fa) / math.Float64frombits(fb))
	case isa.OpFMOV:
		e.F[in.Rd&31] = fa
	case isa.OpFNEG:
		e.F[in.Rd&31] = math.Float64bits(-math.Float64frombits(fa))
	case isa.OpFITOD:
		e.F[in.Rd&31] = math.Float64bits(float64(int64(a)))
	case isa.OpFDTOI:
		e.setReg(in.Rd, uint64(int64(math.Float64frombits(fa))))
	case isa.OpFCMP:
		x, y := math.Float64frombits(fa), math.Float64frombits(fb)
		e.CC = isa.Flags{Z: x == y, N: x < y}
	case isa.OpMOVR2F:
		e.F[in.Rd&31] = a
	case isa.OpMOVF2R:
		e.setReg(in.Rd, fa)

	case isa.OpRDPR, isa.OpWRPR, isa.OpIRET:
		return fmt.Errorf("emu: privileged op %s at %#x not supported", in.Op.Name(), e.PC)
	case isa.OpTRAP:
		if e.Trap == nil || !e.Trap(in.Imm) {
			return fmt.Errorf("emu: unhandled trap %d at %#x", in.Imm, e.PC)
		}
	case isa.OpHALT:
		e.halted = true
		return nil
	default:
		return fmt.Errorf("emu: unimplemented op %s", in.Op.Name())
	}
	e.PC = next
	return nil
}
