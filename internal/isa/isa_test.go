package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Inst{
		{Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpADDI, Rd: 1, Rs1: 2, Imm: -8192},
		{Op: OpADDI, Rd: 1, Rs1: 2, Imm: 8191},
		{Op: OpSUBCCI, Rd: 0, Rs1: 9, Imm: 42},
		{Op: OpLUI, Rd: 31, Imm: 1<<19 - 1},
		{Op: OpBR, Cond: CondNE, Imm: -4},
		{Op: OpBR, Cond: CondA, Imm: 1<<19 - 1},
		{Op: OpJAL, Rd: 15, Imm: -100},
		{Op: OpJALR, Rd: 0, Rs1: 15, Imm: 0},
		{Op: OpLDX, Rd: 5, Rs1: 9, Imm: 40},
		{Op: OpSTX, Rd: 5, Rs1: 9, Imm: -8},
		{Op: OpSTF, Rd: 12, Rs1: 9, Imm: 16},
		{Op: OpSWAP, Rd: 20, Rs1: 9, Imm: 0},
		{Op: OpMEMBAR},
		{Op: OpFADD, Rd: 2, Rs1: 4, Rs2: 6},
		{Op: OpRDPR, Rd: 3, Imm: int64(PRPID)},
		{Op: OpWRPR, Rs1: 3, Imm: int64(PRIVEC)},
		{Op: OpTRAP, Imm: 7},
		{Op: OpHALT},
		{Op: OpNOP},
	}
	for _, in := range cases {
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		got := Decode(w)
		if got != in {
			t.Errorf("round trip %v: got %v (word %08x)", in, got, w)
		}
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	bad := []Inst{
		{Op: OpADDI, Rd: 1, Rs1: 2, Imm: 8192},
		{Op: OpADDI, Rd: 1, Rs1: 2, Imm: -8193},
		{Op: OpLUI, Rd: 1, Imm: 1 << 19},
		{Op: OpLUI, Rd: 1, Imm: -1},
		{Op: OpBR, Cond: CondA, Imm: 1 << 19},
		{Op: OpInvalid},
		{Op: numOps},
		{Op: OpADD, Rd: 32},
	}
	for _, in := range bad {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%v): expected error", in)
		}
	}
}

// TestEncodeDecodeQuick exercises the round trip over randomly generated
// valid instructions.
func TestEncodeDecodeQuick(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	gen := func() Inst {
		for {
			in := Inst{
				Op:  Op(r.Intn(int(numOps)-1) + 1),
				Rd:  Reg(r.Intn(32)),
				Rs1: Reg(r.Intn(32)),
			}
			switch in.Op {
			case OpLUI:
				in.Rs1 = 0
				in.Imm = int64(r.Intn(luiMax + 1))
			case OpBR:
				in.Cond = Cond(r.Intn(int(NumConds)))
				in.Rd, in.Rs1 = 0, 0
				in.Imm = int64(r.Intn(brMax-brMin+1) + brMin)
			case OpJAL:
				in.Rs1 = 0
				in.Imm = int64(r.Intn(jalMax-jalMin+1) + jalMin)
			default:
				if in.Op.HasImm() {
					in.Imm = int64(r.Intn(immMax-immMin+1) + immMin)
				} else {
					in.Rs2 = Reg(r.Intn(32))
				}
			}
			return in
		}
	}
	for i := 0; i < 5000; i++ {
		in := gen()
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		if got := Decode(w); got != in {
			t.Fatalf("round trip %v -> %08x -> %v", in, w, got)
		}
	}
}

func TestDecodeUnknownOpcode(t *testing.T) {
	if got := Decode(0xff000000); got.Op != OpInvalid {
		t.Errorf("Decode(ff000000).Op = %v, want OpInvalid", got.Op)
	}
	if got := Decode(0); got.Op != OpInvalid {
		t.Errorf("Decode(0).Op = %v, want OpInvalid", got.Op)
	}
}

func TestCondEval(t *testing.T) {
	tests := []struct {
		c    Cond
		f    Flags
		want bool
	}{
		{CondA, Flags{}, true},
		{CondN, Flags{N: true, Z: true, V: true, C: true}, false},
		{CondE, Flags{Z: true}, true},
		{CondE, Flags{}, false},
		{CondNE, Flags{}, true},
		{CondL, Flags{N: true}, true},
		{CondL, Flags{N: true, V: true}, false},
		{CondGE, Flags{N: true, V: true}, true},
		{CondG, Flags{}, true},
		{CondG, Flags{Z: true}, false},
		{CondLE, Flags{Z: true}, true},
		{CondCS, Flags{C: true}, true},
		{CondCC, Flags{C: true}, false},
		{CondGU, Flags{}, true},
		{CondGU, Flags{C: true}, false},
		{CondLEU, Flags{C: true}, true},
		{CondNEG, Flags{N: true}, true},
		{CondPOS, Flags{N: true}, false},
		{CondVS, Flags{V: true}, true},
		{CondVC, Flags{V: true}, false},
	}
	for _, tt := range tests {
		if got := tt.c.Eval(tt.f); got != tt.want {
			t.Errorf("%s.Eval(%+v) = %v, want %v", tt.c.Name(), tt.f, got, tt.want)
		}
	}
}

// TestCondPairs verifies that each condition and its logical complement
// always disagree, for all flag combinations.
func TestCondPairs(t *testing.T) {
	pairs := [][2]Cond{
		{CondN, CondA}, {CondE, CondNE}, {CondLE, CondG}, {CondL, CondGE},
		{CondLEU, CondGU}, {CondCS, CondCC}, {CondNEG, CondPOS}, {CondVS, CondVC},
	}
	for i := 0; i < 16; i++ {
		f := Flags{N: i&1 != 0, Z: i&2 != 0, V: i&4 != 0, C: i&8 != 0}
		for _, p := range pairs {
			if p[0].Eval(f) == p[1].Eval(f) {
				t.Errorf("conditions %s and %s agree under %+v", p[0].Name(), p[1].Name(), f)
			}
		}
	}
}

func TestFlagsFromSub(t *testing.T) {
	tests := []struct {
		a, b uint64
		cond Cond
		want bool
	}{
		{5, 5, CondE, true},
		{5, 6, CondL, true},
		{6, 5, CondG, true},
		{0, 1, CondCS, true},              // unsigned 0 < 1
		{^uint64(0), 1, CondGU, true},     // unsigned max > 1
		{1, ^uint64(0), CondCS, true},     // unsigned 1 < max
		{uint64(1 << 63), 1, CondL, true}, // signed min-ish < 1
	}
	for _, tt := range tests {
		f := FlagsFromSub(tt.a, tt.b, tt.a-tt.b)
		if got := tt.cond.Eval(f); got != tt.want {
			t.Errorf("sub(%d,%d) %s = %v, want %v (flags %+v)", tt.a, tt.b, tt.cond.Name(), got, tt.want, f)
		}
	}
}

func TestFlagsFromAddOverflow(t *testing.T) {
	a := uint64(1<<63 - 1) // max int64
	f := FlagsFromAdd(a, 1, a+1)
	if !f.V {
		t.Error("signed overflow not detected")
	}
	f = FlagsFromAdd(^uint64(0), 1, 0)
	if !f.C || !f.Z {
		t.Errorf("carry/zero not detected: %+v", f)
	}
}

func TestParseReg(t *testing.T) {
	tests := []struct {
		in   string
		want Reg
		ok   bool
	}{
		{"%g0", 0, true}, {"%g7", 7, true},
		{"%o0", 8, true}, {"%o7", 15, true},
		{"%l0", 16, true}, {"%l7", 23, true},
		{"%i0", 24, true}, {"%i7", 31, true},
		{"%r17", 17, true}, {"r31", 31, true},
		{"%sp", RegSP, true}, {"%fp", RegFP, true},
		{"%g8", 0, false}, {"%r32", 0, false}, {"%x1", 0, false}, {"", 0, false},
	}
	for _, tt := range tests {
		got, err := ParseReg(tt.in)
		if (err == nil) != tt.ok {
			t.Errorf("ParseReg(%q) err = %v, ok = %v", tt.in, err, tt.ok)
			continue
		}
		if tt.ok && got != tt.want {
			t.Errorf("ParseReg(%q) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestRegNameRoundTrip(t *testing.T) {
	for r := Reg(0); r < NumRegs; r++ {
		got, err := ParseReg(RegName(r))
		if err != nil || got != r {
			t.Errorf("ParseReg(RegName(%d)) = %d, %v", r, got, err)
		}
	}
}

func TestParseFReg(t *testing.T) {
	for r := FReg(0); r < NumFRegs; r++ {
		got, err := ParseFReg(FRegName(r))
		if err != nil || got != r {
			t.Errorf("ParseFReg(FRegName(%d)) = %d, %v", r, got, err)
		}
	}
	for _, bad := range []string{"%f32", "%f-1", "%g1", "f", ""} {
		if _, err := ParseFReg(bad); err == nil {
			t.Errorf("ParseFReg(%q): expected error", bad)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpSTX.IsStore() || OpSTX.IsLoad() {
		t.Error("STX predicates wrong")
	}
	if !OpLDX.IsLoad() || OpLDX.IsStore() {
		t.Error("LDX predicates wrong")
	}
	if !OpSWAP.IsLoad() || !OpSWAP.IsStore() {
		t.Error("SWAP must be both load and store")
	}
	if OpSTF.MemBytes() != 8 || OpLDB.MemBytes() != 1 || OpLDH.MemBytes() != 2 || OpSTW.MemBytes() != 4 {
		t.Error("MemBytes wrong")
	}
	if OpADD.MemBytes() != 0 {
		t.Error("ADD has no memory width")
	}
}

func TestInstSourceDestPredicates(t *testing.T) {
	st := Inst{Op: OpSTX, Rd: 5, Rs1: 9}
	if !st.ReadsRdAsSource() || st.WritesIntReg() {
		t.Error("store must read rd, not write it")
	}
	ld := Inst{Op: OpLDX, Rd: 5, Rs1: 9}
	if ld.ReadsRdAsSource() || !ld.WritesIntReg() {
		t.Error("load must write rd")
	}
	ldz := Inst{Op: OpLDX, Rd: 0, Rs1: 9}
	if ldz.WritesIntReg() {
		t.Error("load to g0 writes nothing")
	}
	sw := Inst{Op: OpSWAP, Rd: 20, Rs1: 9}
	if !sw.ReadsRdAsSource() || !sw.WritesIntReg() {
		t.Error("swap both reads and writes rd")
	}
	br := Inst{Op: OpBR, Cond: CondA}
	if !br.IsBranch() || !br.IsUnconditional() {
		t.Error("ba is an unconditional branch")
	}
	bnz := Inst{Op: OpBR, Cond: CondNE}
	if bnz.IsUnconditional() {
		t.Error("bnz is conditional")
	}
	jal := Inst{Op: OpJAL, Rd: 15}
	if !jal.WritesIntReg() || !jal.IsUnconditional() {
		t.Error("jal writes ra and is unconditional")
	}
	ldf := Inst{Op: OpLDF, Rd: 3, Rs1: 9}
	if !ldf.WritesFPReg() || ldf.WritesIntReg() {
		t.Error("ldf writes an FP register")
	}
	stf := Inst{Op: OpSTF, Rd: 3, Rs1: 9}
	if !stf.ReadsRdAsSource() {
		t.Error("stf reads its FP rd as source")
	}
}

// TestSignExtendQuick checks the helper against the reference computation.
func TestSignExtendQuick(t *testing.T) {
	f := func(v uint32) bool {
		v &= 1<<immBits - 1
		got := signExtend(v, immBits)
		want := int64(int32(v<<(32-immBits)) >> (32 - immBits))
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDisassembleStable(t *testing.T) {
	tests := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3}, "add %g2, %g3, %g1"},
		{Inst{Op: OpADDI, Rd: 8, Rs1: 8, Imm: -8}, "addi %o0, -8, %o0"},
		{Inst{Op: OpSTX, Rd: 5, Rs1: 9, Imm: 40}, "stx %g5, [%o1+40]"},
		{Inst{Op: OpLDX, Rd: 5, Rs1: 9}, "ldx [%o1], %g5"},
		{Inst{Op: OpSWAP, Rd: 20, Rs1: 9}, "swap [%o1], %l4"},
		{Inst{Op: OpSTF, Rd: 12, Rs1: 9, Imm: 8}, "stf %f12, [%o1+8]"},
		{Inst{Op: OpBR, Cond: CondNE, Imm: -4}, "bnz -4"},
		{Inst{Op: OpMEMBAR}, "membar"},
		{Inst{Op: OpHALT}, "halt"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("String(%+v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

// TestDecodeNeverPanics: any 32-bit word decodes without panicking, and
// every decoded instruction disassembles without panicking.
func TestDecodeNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		w := r.Uint32()
		in := Decode(w)
		_ = in.String()
		_ = in.Op.Class()
		_ = in.Op.Name()
	}
	// Exhaustive over opcode space with fixed fields.
	for op := 0; op < 256; op++ {
		w := uint32(op)<<24 | 0x00ffffff
		in := Decode(w)
		_ = in.String()
	}
}

// FuzzDecode: every word decodes to OpInvalid or to an instruction that
// encodes and decodes back to itself (bits no field uses may differ),
// and every decoded instruction disassembles without panicking.
func FuzzDecode(f *testing.F) {
	f.Add(MustEncode(Inst{Op: OpADDI, Rd: 1, Rs1: 2, Imm: -8192}))
	f.Fuzz(func(t *testing.T, w uint32) {
		in := Decode(w)
		_ = in.String()
		if in.Op == OpInvalid {
			return
		}
		enc, err := Encode(in)
		if err != nil {
			t.Fatalf("Decode(%#08x) = %+v does not encode: %v", w, in, err)
		}
		if back := Decode(enc); back != in {
			t.Fatalf("Decode(%#08x) = %+v encodes to %#08x, which decodes to %+v", w, in, enc, back)
		}
	})
}
