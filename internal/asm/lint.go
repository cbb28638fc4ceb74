package asm

import (
	"fmt"
	"sort"
	"strings"

	"csbsim/internal/isa"
)

// This file implements the SV9L lint pass: static checks over an
// assembled program's control-flow graph that catch the bugs the
// simulator would otherwise surface as mysterious timing or data
// artifacts. The checks are:
//
//	dup-label       a label or .equ symbol defined twice
//	undef-label     a referenced symbol with no definition
//	unused-label    a label nothing branches to or reads
//	uninit-reg      a register (or the condition codes) read on some
//	                path before any instruction writes it
//	unreachable     instructions no path from the entry point reaches
//	bad-target      a branch whose target is not an instruction
//	fallthrough     control running past the last instruction of a
//	                block with nowhere to go (missing halt/branch)
//	missing-membar  an uncached load, or halt, ordered after
//	                uncached/combining stores without the membar (or
//	                conditional-flush swap) the protocol requires
//	flush-protocol  a conditional flush (swap to device space) whose
//	                expected-value register may still hold the previous
//	                flush result, or whose result is never checked
//
// Device-space classification uses a small forward constant propagation:
// registers loaded with set/lui/ori/addi chains keep known values, and a
// value at or above IOBase (default 0x40000000, the examples' device
// window) marks the access uncached/combining. Loop-carried addresses
// degrade from "known constant" to "somewhere in device space", which is
// exactly what the membar checks need.
//
// A diagnostic can be suppressed with a comment pragma on the same line,
// or on a line of its own directly above:
//
//	ld [%o1], %g3   ! lint:ignore missing-membar polling a status register
//
// The check name is required; a reason is recommended.

// DefaultIOBase is the lowest address treated as uncached/combining
// device space when LintConfig.IOBase is zero. It matches the examples'
// -uncached/-combining window at 0x40000000.
const DefaultIOBase uint64 = 0x4000_0000

// LintConfig parameterizes the lint pass.
type LintConfig struct {
	// IOBase is the first address of uncached/combining device space;
	// zero means DefaultIOBase.
	IOBase uint64
	// IORanges adds extra [start, end) windows below IOBase that are also
	// mapped uncached/combining — e.g. a DMA staging buffer in low memory
	// that guests map KindUncached so the DMA engine never reads stale
	// cache lines. Accesses in these windows get the same store-buffer
	// ordering checks as accesses above IOBase.
	IORanges [][2]uint64
}

// inIO reports whether a known-constant address falls in device space.
func (cfg *LintConfig) inIO(addr uint64) bool {
	if addr >= cfg.IOBase {
		return true
	}
	for _, r := range cfg.IORanges {
		if addr >= r[0] && addr < r[1] {
			return true
		}
	}
	return false
}

// Diag is one lint finding at a source position.
type Diag struct {
	File  string
	Line  int
	Check string
	Msg   string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Check, d.Msg)
}

// Lint parses, lays out and checks one SV9L source file. It returns the
// findings, or an error when the source does not assemble (lint needs a
// well-formed program to build a CFG; assembler errors are already
// positioned).
func Lint(name, text string, cfg LintConfig) ([]Diag, error) {
	if cfg.IOBase == 0 {
		cfg.IOBase = DefaultIOBase
	}
	a := &assembler{file: name, symbols: make(map[string]uint64)}
	if err := a.parse(text); err != nil {
		return nil, err
	}
	l := &linter{a: a, cfg: cfg, ignores: parseIgnores(text)}
	if bail := l.checkLabels(); bail {
		return l.finish(), nil
	}
	if err := a.layout(); err != nil {
		return nil, err
	}
	if err := l.buildInsts(); err != nil {
		return nil, err
	}
	l.analyze()
	return l.finish(), nil
}

type linter struct {
	a       *assembler
	cfg     LintConfig
	ignores map[int]map[string]bool
	diags   []Diag
	seen    map[string]bool

	insts  []linst
	byAddr map[uint64]int
	states []*lstate // in-state per instruction; nil = unreachable
}

// linst is one decoded instruction with its source position.
type linst struct {
	addr uint64
	line int
	in   isa.Inst
}

func (l *linter) report(line int, check, format string, args ...any) {
	if l.ignores[line][check] {
		return
	}
	d := Diag{File: l.a.file, Line: line, Check: check, Msg: fmt.Sprintf(format, args...)}
	if l.seen == nil {
		l.seen = make(map[string]bool)
	}
	key := d.String()
	if l.seen[key] {
		return
	}
	l.seen[key] = true
	l.diags = append(l.diags, d)
}

func (l *linter) finish() []Diag {
	sort.Slice(l.diags, func(i, j int) bool {
		if l.diags[i].Line != l.diags[j].Line {
			return l.diags[i].Line < l.diags[j].Line
		}
		return l.diags[i].Check < l.diags[j].Check
	})
	return l.diags
}

// parseIgnores scans raw source for `lint:ignore <check>` comment
// pragmas. A pragma on a code line applies to that line; a pragma on a
// comment-only line applies to the next line.
func parseIgnores(text string) map[int]map[string]bool {
	out := make(map[int]map[string]bool)
	for li, raw := range strings.Split(text, "\n") {
		lineNo := li + 1
		code := strings.TrimSpace(stripComment(raw))
		comment := raw[len(stripComment(raw)):]
		idx := strings.Index(comment, "lint:ignore")
		if idx < 0 {
			continue
		}
		fields := strings.Fields(comment[idx+len("lint:ignore"):])
		if len(fields) == 0 {
			continue
		}
		target := lineNo
		if code == "" {
			target = lineNo + 1
		}
		if out[target] == nil {
			out[target] = make(map[string]bool)
		}
		for _, check := range strings.Split(fields[0], ",") {
			out[target][check] = true
		}
	}
	return out
}

// ---- label checks (pre-layout) ----

// checkLabels reports duplicate, undefined and unused symbols. It
// returns true when layout would fail (duplicates or undefined
// references), in which case the CFG checks are skipped.
func (l *linter) checkLabels() (bail bool) {
	type def struct {
		line  int
		label bool // a code label, as opposed to an .equ constant
	}
	defs := map[string]def{".": {}, "_start": {}}
	delete(defs, "_start") // only a default entry name, not a definition
	for _, st := range l.a.stmts {
		switch st.dir {
		case "@label", "equ":
			if prev, dup := defs[st.dirStr]; dup {
				l.report(st.line, "dup-label",
					"symbol %q already defined at line %d", st.dirStr, prev.line)
				bail = true
				continue
			}
			defs[st.dirStr] = def{line: st.line, label: st.dir == "@label"}
		}
	}

	referenced := map[string]bool{}
	refLine := map[string]int{}
	addRefs := func(line int, e expr) {
		for _, s := range e.symbols() {
			if !referenced[s] {
				referenced[s] = true
				refLine[s] = line
			}
		}
	}
	for _, st := range l.a.stmts {
		for _, op := range st.ops {
			if op.kind == opndExpr || op.kind == opndMem {
				addRefs(st.line, op.e)
			}
		}
		for _, e := range st.dirExprs {
			addRefs(st.line, e)
		}
		if st.dir == "entry" {
			referenced[st.dirStr] = true
		}
	}
	referenced["_start"] = true // implicit entry symbol
	referenced["."] = true      // location counter

	for sym := range referenced {
		if sym == "." || sym == "_start" {
			continue
		}
		if _, ok := defs[sym]; !ok {
			l.report(refLine[sym], "undef-label", "undefined symbol %q", sym)
			bail = true
		}
	}
	// Deterministic order for unused-label reports: scan definitions in
	// source order.
	for _, st := range l.a.stmts {
		if st.dir != "@label" {
			continue
		}
		if d, ok := defs[st.dirStr]; ok && d.label && d.line == st.line && !referenced[st.dirStr] {
			l.report(st.line, "unused-label", "label %q is never referenced", st.dirStr)
		}
	}
	return bail
}

// ---- instruction stream ----

func (l *linter) buildInsts() error {
	for si := range l.a.stmts {
		st := &l.a.stmts[si]
		if st.mn == "" {
			continue
		}
		l.a.symbols["."] = st.addr
		insts, err := l.a.buildInst(st)
		if err != nil {
			return err
		}
		for k, in := range insts {
			l.insts = append(l.insts, linst{
				addr: st.addr + uint64(k*isa.InstBytes),
				line: st.line,
				in:   in,
			})
		}
	}
	sort.SliceStable(l.insts, func(i, j int) bool { return l.insts[i].addr < l.insts[j].addr })
	l.byAddr = make(map[uint64]int, len(l.insts))
	for i, li := range l.insts {
		l.byAddr[li.addr] = i
	}
	l.states = make([]*lstate, len(l.insts))
	return nil
}

func (l *linter) entry() uint64 {
	if l.a.entrySet {
		return l.a.entry
	}
	if v, ok := l.a.symbols["_start"]; ok {
		return v
	}
	return l.a.firstAddr
}

// ---- abstract values ----

// An absval classifies a register's runtime value: a known constant,
// "somewhere in device space" (>= IOBase), or unknown.
type absval struct {
	kind uint8
	c    uint64
}

const (
	avTop   uint8 = iota // unknown
	avConst              // exactly c
	avIO                 // some address >= IOBase
)

func (l *linter) classify(v absval) uint8 {
	if v.kind == avConst {
		if l.cfg.inIO(v.c) {
			return avIO
		}
		return avTop
	}
	return v.kind
}

func (l *linter) meetVal(a, b absval) absval {
	if a == b {
		return a
	}
	if l.classify(a) == avIO && l.classify(b) == avIO {
		return absval{kind: avIO}
	}
	return absval{kind: avTop}
}

// ---- dataflow state ----

// lstate is the forward dataflow state at an instruction boundary.
type lstate struct {
	def     uint32 // int registers definitely written (bit r)
	fdef    uint32 // fp registers definitely written
	cc      bool   // condition codes definitely written
	fromSwp uint32 // int registers that MAY hold a swap (flush) result
	pendIO  bool   // device stores MAY be buffered (membar pending)
	dirty   bool   // combining data MAY be unflushed (swap/membar pending)
	regs    [isa.NumRegs]absval
}

func (l *linter) entryState() lstate {
	s := lstate{def: 1} // r0 is always defined (and reads as zero)
	s.regs[0] = absval{kind: avConst}
	for i := 1; i < isa.NumRegs; i++ {
		s.regs[i] = absval{kind: avTop}
	}
	return s
}

// havoc forgets everything a called routine might change, keeping only
// the pending-I/O bits (a callee is not assumed to membar for us).
func havoc(s lstate) lstate {
	h := lstate{def: ^uint32(0), fdef: ^uint32(0), cc: true,
		pendIO: s.pendIO, dirty: s.dirty}
	h.regs[0] = absval{kind: avConst}
	for i := 1; i < isa.NumRegs; i++ {
		h.regs[i] = absval{kind: avTop}
	}
	return h
}

// join widens dst by src; it reports whether dst changed.
func (l *linter) join(dst *lstate, src lstate) bool {
	changed := false
	upd32 := func(d *uint32, v uint32) {
		if *d != v {
			*d = v
			changed = true
		}
	}
	updB := func(d *bool, v bool) {
		if *d != v {
			*d = v
			changed = true
		}
	}
	upd32(&dst.def, dst.def&src.def)
	upd32(&dst.fdef, dst.fdef&src.fdef)
	updB(&dst.cc, dst.cc && src.cc)
	upd32(&dst.fromSwp, dst.fromSwp|src.fromSwp)
	updB(&dst.pendIO, dst.pendIO || src.pendIO)
	updB(&dst.dirty, dst.dirty || src.dirty)
	for i := range dst.regs {
		m := l.meetVal(dst.regs[i], src.regs[i])
		if m != dst.regs[i] {
			dst.regs[i] = m
			changed = true
		}
	}
	return changed
}

func (s *lstate) val(r isa.Reg) absval {
	if r == 0 {
		return absval{kind: avConst}
	}
	return s.regs[r]
}

// addrOf computes the abstract effective address [rs1+imm].
func (l *linter) addrOf(s *lstate, in isa.Inst) uint8 {
	v := s.val(in.Rs1)
	if v.kind == avConst {
		v.c += uint64(in.Imm)
	}
	return l.classify(v)
}

// writesCC reports whether op updates the integer condition codes.
func writesCC(op isa.Op) bool {
	switch op {
	case isa.OpADDCC, isa.OpSUBCC, isa.OpANDCC, isa.OpORCC,
		isa.OpADDCCI, isa.OpSUBCCI, isa.OpANDCCI, isa.OpORCCI, isa.OpFCMP:
		return true
	}
	return false
}

// readsCC reports whether the instruction consumes the condition codes.
func readsCC(in isa.Inst) bool {
	return in.Op == isa.OpBR && in.Cond != isa.CondA && in.Cond != isa.CondN
}

// resultVal evaluates the integer result of in over the abstract state —
// just enough constant propagation to follow set/lui/ori/addi address
// chains and keep device-space pointers classified through loops.
func (l *linter) resultVal(s *lstate, in isa.Inst) absval {
	binop := func(v uint64) absval { return absval{kind: avConst, c: v} }
	switch in.Op {
	case isa.OpLUI:
		return binop(uint64(in.Imm) << 13)
	case isa.OpADDI, isa.OpSUBI, isa.OpANDI, isa.OpORI, isa.OpXORI,
		isa.OpSLLI, isa.OpSRLI, isa.OpSRAI, isa.OpMULI,
		isa.OpADDCCI, isa.OpSUBCCI, isa.OpANDCCI, isa.OpORCCI:
		v := s.val(in.Rs1)
		if v.kind == avConst {
			c, imm := v.c, uint64(in.Imm)
			switch in.Op {
			case isa.OpADDI, isa.OpADDCCI:
				return binop(c + imm)
			case isa.OpSUBI, isa.OpSUBCCI:
				return binop(c - imm)
			case isa.OpANDI, isa.OpANDCCI:
				return binop(c & imm)
			case isa.OpORI, isa.OpORCCI:
				return binop(c | imm)
			case isa.OpXORI:
				return binop(c ^ imm)
			case isa.OpSLLI:
				return binop(c << (imm & 63))
			case isa.OpSRLI:
				return binop(c >> (imm & 63))
			case isa.OpSRAI:
				return binop(uint64(int64(c) >> (imm & 63)))
			case isa.OpMULI:
				return binop(c * imm)
			}
		}
		if v.kind == avIO {
			switch in.Op {
			case isa.OpADDI, isa.OpSUBI, isa.OpORI, isa.OpADDCCI, isa.OpSUBCCI:
				return absval{kind: avIO} // offset within the device window
			}
		}
	case isa.OpADD, isa.OpOR, isa.OpADDCC, isa.OpORCC:
		v1, v2 := s.val(in.Rs1), s.val(in.Rs2)
		// mov/clr expand to OR with %g0: propagate the other operand.
		zero := absval{kind: avConst}
		if v1 == zero {
			return v2
		}
		if v2 == zero {
			return v1
		}
		if v1.kind == avConst && v2.kind == avConst {
			if in.Op == isa.OpOR || in.Op == isa.OpORCC {
				return binop(v1.c | v2.c)
			}
			return binop(v1.c + v2.c)
		}
		if in.Op == isa.OpADD || in.Op == isa.OpADDCC {
			if l.classify(v1) == avIO && v2.kind == avConst ||
				l.classify(v2) == avIO && v1.kind == avConst {
				return absval{kind: avIO}
			}
		}
	}
	return absval{kind: avTop}
}

// transfer applies one instruction to a copy of its in-state.
func (l *linter) transfer(i int, s lstate) lstate {
	in := l.insts[i].in
	switch {
	case in.Op == isa.OpMEMBAR:
		s.pendIO, s.dirty = false, false
	case in.Op == isa.OpSWAP:
		if l.addrOf(&s, in) == avIO {
			s.dirty = false // the conditional flush collects the line
			s.pendIO = true // ... but the burst still has to drain
		}
	case in.Op.Class() == isa.ClassStore:
		if l.addrOf(&s, in) == avIO {
			s.pendIO, s.dirty = true, true
		}
	}
	val := l.resultVal(&s, in)
	if in.WritesIntReg() {
		r := in.Rd
		s.def |= 1 << r
		s.regs[r] = val
		if in.Op == isa.OpSWAP {
			s.fromSwp |= 1 << r
			s.regs[r] = absval{kind: avTop}
		} else {
			s.fromSwp &^= 1 << r
		}
	}
	if in.WritesFPReg() {
		s.fdef |= 1 << in.Rd
	}
	if writesCC(in.Op) {
		s.cc = true
	}
	return s
}

// ---- control flow ----

type edge struct {
	to    int
	havoc bool
}

// targetIdx resolves a PC-relative branch to an instruction index.
func (l *linter) targetIdx(i int) (int, bool) {
	li := l.insts[i]
	taddr := li.addr + uint64(isa.InstBytes) + uint64(li.in.Imm*int64(isa.InstBytes))
	idx, ok := l.byAddr[taddr]
	return idx, ok
}

// succs returns the CFG edges out of instruction i. Unresolvable
// fallthroughs and branch targets are reported by the caller during the
// final pass, so this stays pure.
func (l *linter) succs(i int) []edge {
	in := l.insts[i].in
	fall := -1
	if j, ok := l.byAddr[l.insts[i].addr+uint64(isa.InstBytes)]; ok {
		fall = j
	}
	var out []edge
	addFall := func(h bool) {
		if fall >= 0 {
			out = append(out, edge{to: fall, havoc: h})
		}
	}
	switch in.Op {
	case isa.OpHALT, isa.OpIRET:
		return nil
	case isa.OpBR:
		tgt, ok := l.targetIdx(i)
		switch {
		case in.Cond == isa.CondA:
			if ok {
				out = append(out, edge{to: tgt})
			}
		case in.Cond == isa.CondN:
			addFall(false)
		default:
			addFall(false)
			if ok {
				out = append(out, edge{to: tgt})
			}
		}
	case isa.OpJAL:
		if tgt, ok := l.targetIdx(i); ok {
			out = append(out, edge{to: tgt})
		}
		addFall(true) // the call returns with unknown register state
	case isa.OpJALR:
		if in.Rd != isa.RegZero {
			addFall(true) // register call; ret/jmp (%rd = %g0) is terminal
		}
	case isa.OpTRAP:
		addFall(true)
	default:
		addFall(false)
	}
	return out
}

// ---- the analysis driver and final checks ----

func (l *linter) analyze() {
	if len(l.insts) == 0 {
		return
	}
	entryIdx, ok := l.byAddr[l.entry()]
	if !ok {
		l.report(l.insts[0].line, "bad-target",
			"entry point %#x is not an instruction", l.entry())
		return
	}
	es := l.entryState()
	l.states[entryIdx] = &es
	work := []int{entryIdx}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		out := l.transfer(i, *l.states[i])
		for _, e := range l.succs(i) {
			ns := out
			if e.havoc {
				ns = havoc(out)
			}
			if l.states[e.to] == nil {
				cp := ns
				l.states[e.to] = &cp
				work = append(work, e.to)
			} else if l.join(l.states[e.to], ns) {
				work = append(work, e.to)
			}
		}
	}
	l.checkInsts()
	l.checkUnreachable()
}

func (l *linter) checkInsts() {
	for i, li := range l.insts {
		s := l.states[i]
		if s == nil {
			continue
		}
		l.checkReads(li, s)
		in := li.in

		// Structural successors.
		if in.IsBranch() && in.Op != isa.OpJALR {
			if _, ok := l.targetIdx(i); !ok {
				l.report(li.line, "bad-target",
					"branch target %#x is not an instruction",
					li.addr+uint64(isa.InstBytes)+uint64(in.Imm*int64(isa.InstBytes)))
			}
		}
		fallsThrough := false
		switch {
		case in.Op == isa.OpHALT || in.Op == isa.OpIRET:
		case in.IsUnconditional():
		case in.Op == isa.OpJALR && in.Rd == isa.RegZero:
		default:
			fallsThrough = true
		}
		if fallsThrough {
			if _, ok := l.byAddr[li.addr+uint64(isa.InstBytes)]; !ok {
				l.report(li.line, "fallthrough",
					"control runs past this instruction into data or off the end; add halt or a branch")
			}
		}

		// Protocol checks.
		switch {
		case in.Op == isa.OpHALT:
			if s.pendIO {
				l.report(li.line, "missing-membar",
					"halt while uncached/combining stores may still be buffered; insert membar before halt")
			}
		case in.Op == isa.OpSWAP:
			if l.addrOf(s, in) == avIO {
				l.checkFlush(i, li, s)
			}
		case in.Op.Class() == isa.ClassLoad:
			if l.addrOf(s, in) == avIO && s.dirty {
				l.report(li.line, "missing-membar",
					"uncached load ordered after combining stores that may not have flushed; issue the conditional-flush swap or a membar first")
			}
		}
	}
}

// checkFlush verifies the conditional-flush protocol at an IO-space swap:
// the expected-value register must be freshly loaded (a retry loop that
// branches straight back to the swap would hand the previous flush result
// in as the expected hit count), and the result must be checked before it
// is clobbered (an unchecked flush silently drops device data on a miss).
func (l *linter) checkFlush(i int, li linst, s *lstate) {
	rd := li.in.Rd
	if s.fromSwp&(1<<rd) != 0 {
		l.report(li.line, "flush-protocol",
			"expected-value register %s may still hold the previous flush result; reload it on every retry",
			isa.RegName(rd))
	}
	if rd == isa.RegZero {
		l.report(li.line, "flush-protocol",
			"conditional flush result is discarded (%%g0); compare it and retry on failure")
		return
	}
	// Scan forward along fallthrough order for a read of rd before it is
	// redefined. Calls and indirect jumps end the scan benignly (the
	// check could happen elsewhere); everything else that clobbers or
	// abandons rd is a protocol violation.
	for j := i + 1; j < len(l.insts); j++ {
		in := l.insts[j].in
		if readsInt(in, rd) {
			return
		}
		if in.WritesIntReg() && in.Rd == rd {
			break
		}
		if in.Op == isa.OpJAL || in.Op == isa.OpJALR {
			return
		}
		if in.IsUnconditional() || in.Op == isa.OpHALT || in.Op == isa.OpIRET {
			break
		}
	}
	l.report(li.line, "flush-protocol",
		"conditional flush result in %s is never checked; compare it and retry on failure",
		isa.RegName(rd))
}

// readsInt reports whether in reads integer register r.
func readsInt(in isa.Inst, r isa.Reg) bool {
	if in.ReadsIntRs1() && in.Rs1 == r {
		return true
	}
	if in.ReadsIntRs2() && in.Rs2 == r {
		return true
	}
	if in.ReadsRdAsSource() && !in.Op.FPRd() && in.Rd == r {
		return true
	}
	return false
}

// checkReads reports registers read before any path wrote them.
func (l *linter) checkReads(li linst, s *lstate) {
	in := li.in
	intRead := func(r isa.Reg) {
		if r != 0 && s.def&(1<<r) == 0 {
			l.report(li.line, "uninit-reg",
				"%s read before any write (defaults to zero, which is rarely intended)",
				isa.RegName(r))
		}
	}
	fpRead := func(r isa.Reg) {
		if s.fdef&(1<<r) == 0 {
			l.report(li.line, "uninit-reg",
				"%s read before any write (defaults to zero, which is rarely intended)",
				isa.FRegName(isa.FReg(r)))
		}
	}
	if in.ReadsIntRs1() {
		intRead(in.Rs1)
	}
	if in.ReadsIntRs2() {
		intRead(in.Rs2)
	}
	if in.Op.FPRs1() {
		fpRead(in.Rs1)
	}
	if in.Op.FPRs2() {
		fpRead(in.Rs2)
	}
	if in.ReadsRdAsSource() {
		if in.Op.FPRd() {
			fpRead(in.Rd)
		} else {
			intRead(in.Rd)
		}
	}
	if readsCC(in) && !s.cc {
		l.report(li.line, "uninit-reg",
			"conditional branch reads the condition codes before any cc-setting instruction")
	}
}

// checkUnreachable reports the first line of every run of instructions no
// path from the entry reaches.
func (l *linter) checkUnreachable() {
	inRun := false
	for i := range l.insts {
		if l.states[i] != nil {
			inRun = false
			continue
		}
		if !inRun {
			l.report(l.insts[i].line, "unreachable",
				"unreachable code (no path from the entry point reaches it)")
			inRun = true
		}
	}
}
