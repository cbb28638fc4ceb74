package asm

import (
	"fmt"
	"math"
	"strings"

	"csbsim/internal/isa"
)

// DefaultOrigin is where assembly starts when the source has no leading
// .org directive.
const DefaultOrigin uint64 = 0x10000

// Assemble translates SV9L assembly source into a Program. name is used in
// error messages.
func Assemble(name, text string) (*Program, error) {
	a := &assembler{
		file:    name,
		symbols: make(map[string]uint64),
	}
	if err := a.parse(text); err != nil {
		return nil, err
	}
	if err := a.layout(); err != nil {
		return nil, err
	}
	if err := a.emit(); err != nil {
		return nil, err
	}
	delete(a.symbols, ".") // the location counter is not a real symbol
	entry := a.entry
	if !a.entrySet {
		if v, ok := a.symbols["_start"]; ok {
			entry = v
		} else {
			entry = a.firstAddr
		}
	}
	p := &Program{Entry: entry, Chunks: a.chunks, Symbols: a.symbols}
	p.base, p.flat, p.flatErr = flatten(p.Chunks)
	return p, nil
}

type opndKind uint8

const (
	opndReg opndKind = iota
	opndFReg
	opndPR
	opndMem
	opndExpr
)

type operand struct {
	kind opndKind
	reg  isa.Reg
	freg isa.FReg
	pr   isa.PR
	base isa.Reg // opndMem
	e    expr    // opndExpr, or opndMem's displacement
}

// regOperands maps every lower-case register name the isa parsers
// accept without leading zeros (integer, floating-point and privileged)
// to its operand, so a register resolves with one lookup. Other
// spellings fall back to the parsers, which also word the errors.
var regOperands = func() map[string]operand {
	m := make(map[string]operand)
	// Later entries win, so a name both parsers accepted would resolve
	// as parseOperand probes: integer, then fp, then privileged.
	for pr := isa.PR(0); pr < isa.NumPRs; pr++ {
		m["%"+isa.PRName(pr)] = operand{kind: opndPR, pr: pr}
	}
	for f := isa.FReg(0); f < isa.NumFRegs; f++ {
		m[isa.FRegName(f)] = operand{kind: opndFReg, freg: f}
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		m[isa.RegName(r)] = operand{kind: opndReg, reg: r}
		m[fmt.Sprintf("%%r%d", r)] = operand{kind: opndReg, reg: r}
	}
	m["%sp"] = operand{kind: opndReg, reg: isa.RegSP}
	m["%fp"] = operand{kind: opndReg, reg: isa.RegFP}
	m["%zero"] = operand{kind: opndReg, reg: isa.RegZero}
	return m
}()

// parseReg is isa.ParseReg with regOperands' fast path.
func parseReg(s string) (isa.Reg, error) {
	if op, ok := regOperands[s]; ok && op.kind == opndReg {
		return op.reg, nil
	}
	return isa.ParseReg(s)
}

type stmt struct {
	line      int
	mn        string // instruction mnemonic, or ""
	ops       []operand
	dir       string // directive without leading dot, or ""
	dirExprs  []expr
	dirFloats []float64
	dirStr    string
	addr      uint64 // assigned in layout
	size      int    // bytes occupied
}

type assembler struct {
	file      string
	stmts     []stmt
	symbols   map[string]uint64
	chunks    []Chunk
	entry     uint64
	entrySet  bool
	firstAddr uint64

	// Per-program storage that parsing and emission reuse or carve
	// from, so a source line allocates nothing of its own: toks is the
	// token buffer every line is split into, ops and exprs the slabs
	// statements' operands and directive expressions are cut from
	// (capacity capped), and inst the expansion buildInst returns.
	toks  []token
	ops   []operand
	exprs []expr
	inst  [2]isa.Inst
}

func (a *assembler) errf(line int, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", a.file, line, fmt.Sprintf(format, args...))
}

// ---- parsing ----

func (a *assembler) parse(text string) error {
	// A line holds one statement besides its labels, and each operand
	// but the last ends at a comma, so ops never has to grow, nor stmts
	// unless a label shares a line.
	nLines := strings.Count(text, "\n") + 1
	a.stmts = make([]stmt, 0, nLines)
	a.ops = make([]operand, 0, nLines+strings.Count(text, ","))
	a.toks = make([]token, 0, 16)
	for lineNo, rest, more := 1, text, true; more; lineNo++ {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		line := strings.TrimSpace(stripComment(raw))
		if line == "" {
			continue
		}
		toks, err := tokenize(line, a.toks[:0])
		a.toks = toks
		if err != nil {
			return a.errf(lineNo, "%v", err)
		}
		i := 0
		// Leading labels: ident ':'.
		for i+1 < len(toks) && toks[i].kind == tokIdent &&
			toks[i+1].kind == tokPunct && toks[i+1].text == ":" {
			a.stmts = append(a.stmts, stmt{line: lineNo, dir: "@label", dirStr: toks[i].text})
			i += 2
		}
		if i >= len(toks) {
			continue
		}
		if toks[i].kind != tokIdent {
			return a.errf(lineNo, "expected mnemonic or directive, found %s", toks[i])
		}
		word := toks[i].text
		i++
		// A dot-word followed by a colon (".RETRY:") was already taken as a
		// label; every other dot-word is a directive, since no mnemonic
		// starts with a dot.
		if strings.HasPrefix(word, ".") {
			st, err := a.parseDirective(lineNo, strings.ToLower(word[1:]), toks, i)
			if err != nil {
				return err
			}
			a.stmts = append(a.stmts, st)
			continue
		}
		ops, err := a.parseOperands(lineNo, toks, i)
		if err != nil {
			return err
		}
		a.stmts = append(a.stmts, stmt{line: lineNo, mn: strings.ToLower(word), ops: ops})
	}
	return nil
}

func (a *assembler) parseDirective(line int, dir string, toks []token, i int) (stmt, error) {
	st := stmt{line: line, dir: dir}
	switch dir {
	case "org", "align", "space", "skip":
		e, err := parseExpr(toks, &i)
		if err != nil {
			return st, a.errf(line, ".%s: %v", dir, err)
		}
		st.dirExprs = a.carveExprs(e)
	case "byte", "half", "word", "dword", "xword", "quad":
		start := len(a.exprs)
		for {
			e, err := parseExpr(toks, &i)
			if err != nil {
				return st, a.errf(line, ".%s: %v", dir, err)
			}
			a.exprs = append(a.exprs, e)
			if i < len(toks) && toks[i].kind == tokPunct && toks[i].text == "," {
				i++
				continue
			}
			break
		}
		st.dirExprs = a.exprs[start:len(a.exprs):len(a.exprs)]
	case "double", "float":
		for {
			neg := false
			for i < len(toks) && toks[i].kind == tokPunct && toks[i].text == "-" {
				neg = !neg
				i++
			}
			if i >= len(toks) {
				return st, a.errf(line, ".%s: expected float", dir)
			}
			var f float64
			switch toks[i].kind {
			case tokFloat:
				f = toks[i].fnum
			case tokNumber:
				f = float64(toks[i].num)
			default:
				return st, a.errf(line, ".%s: expected float, found %s", dir, toks[i])
			}
			if neg {
				f = -f
			}
			st.dirFloats = append(st.dirFloats, f)
			i++
			if i < len(toks) && toks[i].kind == tokPunct && toks[i].text == "," {
				i++
				continue
			}
			break
		}
	case "ascii", "asciz", "string":
		if i >= len(toks) || toks[i].kind != tokString {
			return st, a.errf(line, ".%s: expected string", dir)
		}
		st.dirStr = toks[i].text
		if dir != "ascii" {
			st.dirStr += "\x00"
		}
		i++
	case "equ", "set":
		if i >= len(toks) || toks[i].kind != tokIdent {
			return st, a.errf(line, ".equ: expected name")
		}
		st.dirStr = toks[i].text
		i++
		if i < len(toks) && toks[i].kind == tokPunct && toks[i].text == "," {
			i++
		}
		e, err := parseExpr(toks, &i)
		if err != nil {
			return st, a.errf(line, ".equ: %v", err)
		}
		st.dirExprs = a.carveExprs(e)
		st.dir = "equ"
	case "entry":
		if i >= len(toks) || toks[i].kind != tokIdent {
			return st, a.errf(line, ".entry: expected symbol")
		}
		st.dirStr = toks[i].text
		i++
	case "global", "globl", "text", "data", "section":
		// Accepted for source compatibility; no effect.
		return st, nil
	default:
		return st, a.errf(line, "unknown directive .%s", dir)
	}
	if i < len(toks) {
		return st, a.errf(line, ".%s: trailing tokens starting at %s", dir, toks[i])
	}
	return st, nil
}

// carveExprs returns a one-expression list cut from the exprs slab.
func (a *assembler) carveExprs(e expr) []expr {
	a.exprs = append(a.exprs, e)
	n := len(a.exprs)
	return a.exprs[n-1 : n : n]
}

// parseOperands parses a statement's operand list into the ops slab and
// returns its span there, or nil when it is empty.
func (a *assembler) parseOperands(line int, toks []token, i int) ([]operand, error) {
	start := len(a.ops)
	for i < len(toks) {
		op, ni, err := a.parseOperand(line, toks, i)
		if err != nil {
			return nil, err
		}
		a.ops = append(a.ops, op)
		i = ni
		if i < len(toks) {
			if toks[i].kind == tokPunct && toks[i].text == "," {
				i++
				continue
			}
			return nil, a.errf(line, "expected ',', found %s", toks[i])
		}
	}
	if len(a.ops) == start {
		return nil, nil
	}
	return a.ops[start:len(a.ops):len(a.ops)], nil
}

func (a *assembler) parseOperand(line int, toks []token, i int) (operand, int, error) {
	t := toks[i]
	switch {
	case t.kind == tokPunct && t.text == "[":
		i++
		if i >= len(toks) || toks[i].kind != tokReg {
			return operand{}, i, a.errf(line, "expected base register after '['")
		}
		r, err := parseReg(toks[i].text)
		if err != nil {
			return operand{}, i, a.errf(line, "%v", err)
		}
		i++
		op := operand{kind: opndMem, base: r} // the zero expr is a displacement of 0
		if i < len(toks) && toks[i].kind == tokPunct && (toks[i].text == "+" || toks[i].text == "-") {
			e, err := parseExpr(toks, &i)
			if err != nil {
				return operand{}, i, a.errf(line, "bad displacement: %v", err)
			}
			op.e = e
		}
		if i >= len(toks) || toks[i].kind != tokPunct || toks[i].text != "]" {
			return operand{}, i, a.errf(line, "expected ']'")
		}
		return op, i + 1, nil
	case t.kind == tokReg:
		if op, ok := regOperands[t.text]; ok {
			return op, i + 1, nil
		}
		if r, err := isa.ParseReg(t.text); err == nil {
			return operand{kind: opndReg, reg: r}, i + 1, nil
		}
		if f, err := isa.ParseFReg(t.text); err == nil {
			return operand{kind: opndFReg, freg: f}, i + 1, nil
		}
		if pr, ok := isa.PRByName(t.text); ok {
			return operand{kind: opndPR, pr: pr}, i + 1, nil
		}
		return operand{}, i, a.errf(line, "unknown register %q", t.text)
	default:
		e, err := parseExpr(toks, &i)
		if err != nil {
			return operand{}, i, a.errf(line, "%v", err)
		}
		return operand{kind: opndExpr, e: e}, i, nil
	}
}

// ---- layout (pass 1) ----

func (a *assembler) layout() error {
	loc := DefaultOrigin
	locSet := false
	first := true
	for si := range a.stmts {
		st := &a.stmts[si]
		switch st.dir {
		case "@label":
			if _, dup := a.symbols[st.dirStr]; dup {
				return a.errf(st.line, "duplicate label %q", st.dirStr)
			}
			a.symbols[st.dirStr] = loc
			continue
		case "equ":
			a.symbols["."] = loc
			v, err := st.dirExprs[0].eval(a.symbols)
			if err != nil {
				return a.errf(st.line, ".equ %s: %v (forward references not allowed in .equ)", st.dirStr, err)
			}
			if _, dup := a.symbols[st.dirStr]; dup {
				return a.errf(st.line, "duplicate symbol %q", st.dirStr)
			}
			a.symbols[st.dirStr] = uint64(v)
			continue
		case "org":
			v, err := st.dirExprs[0].eval(a.symbols)
			if err != nil {
				return a.errf(st.line, ".org: %v", err)
			}
			loc = uint64(v)
			locSet = true
			continue
		case "align":
			v, err := st.dirExprs[0].eval(a.symbols)
			if err != nil {
				return a.errf(st.line, ".align: %v", err)
			}
			if v <= 0 || v&(v-1) != 0 {
				return a.errf(st.line, ".align: %d is not a power of two", v)
			}
			st.addr = loc
			pad := (uint64(v) - loc%uint64(v)) % uint64(v)
			st.size = int(pad)
			loc += pad
			continue
		case "entry":
			continue
		case "":
			// instruction below
		default:
			st.addr = loc
			st.size = a.directiveSize(st)
			loc += uint64(st.size)
			continue
		}
		if st.mn == "" {
			continue
		}
		if first || !locSet {
			if first {
				a.firstAddr = loc
				first = false
			}
		}
		st.addr = loc
		st.size = instSize(st.mn)
		loc += uint64(st.size)
	}
	if first {
		a.firstAddr = loc
	}
	// Resolve .entry now that all labels are known.
	for _, st := range a.stmts {
		if st.dir == "entry" {
			v, ok := a.symbols[st.dirStr]
			if !ok {
				return a.errf(st.line, ".entry: undefined symbol %q", st.dirStr)
			}
			a.entry = v
			a.entrySet = true
		}
	}
	return nil
}

func (a *assembler) directiveSize(st *stmt) int {
	switch st.dir {
	case "byte":
		return len(st.dirExprs)
	case "half":
		return 2 * len(st.dirExprs)
	case "word":
		return 4 * len(st.dirExprs)
	case "dword", "xword", "quad":
		return 8 * len(st.dirExprs)
	case "float":
		return 4 * len(st.dirFloats)
	case "double":
		return 8 * len(st.dirFloats)
	case "ascii", "asciz", "string":
		return len(st.dirStr)
	case "space", "skip":
		v, err := st.dirExprs[0].eval(a.symbols)
		if err != nil || v < 0 {
			return 0 // reported during emit
		}
		return int(v)
	}
	return 0
}

// instSize returns the encoded size of a mnemonic in bytes. Only the `set`
// pseudo-instruction expands to two words; everything else is one.
func instSize(mn string) int {
	if mn == "set" || mn == "set64lo" {
		return 2 * isa.InstBytes
	}
	return isa.InstBytes
}

// ---- emission (pass 2) ----

// emitter appends every chunk's bytes to buf: the open chunk is
// buf[start:].
type emitter struct {
	addr  uint64
	buf   []byte
	start int
	open  bool
}

func (a *assembler) flushChunk(e *emitter) {
	if n := len(e.buf); e.open && n > e.start {
		a.chunks = append(a.chunks, Chunk{Addr: e.addr, Data: e.buf[e.start:n:n]})
	}
	e.start = len(e.buf)
	e.open = false
}

func (a *assembler) emit() error {
	// Every chunk is cut from one buffer sized by layout.
	total := 0
	for si := range a.stmts {
		total += a.stmts[si].size
	}
	e := emitter{buf: make([]byte, 0, total)}
	loc := DefaultOrigin
	start := func(addr uint64) {
		if !e.open {
			e.addr = addr
			e.open = true
		}
	}
	for si := range a.stmts {
		st := &a.stmts[si]
		switch st.dir {
		case "@label", "equ", "entry", "global", "globl", "text", "data", "section":
			continue
		case "org":
			v, _ := st.dirExprs[0].eval(a.symbols)
			a.flushChunk(&e)
			loc = uint64(v)
			continue
		}
		if st.dir != "" {
			start(st.addr)
			if st.addr != loc {
				a.flushChunk(&e)
				start(st.addr)
			}
			a.symbols["."] = st.addr // the location counter
			n := len(e.buf)
			var err error
			if e.buf, err = a.emitDirective(st, e.buf); err != nil {
				return err
			}
			loc = st.addr + uint64(len(e.buf)-n)
			continue
		}
		if st.mn == "" {
			continue
		}
		if st.addr != loc || !e.open {
			a.flushChunk(&e)
			start(st.addr)
		}
		a.symbols["."] = st.addr // the location counter
		insts, err := a.buildInst(st)
		if err != nil {
			return err
		}
		for _, in := range insts {
			w, err := isa.Encode(in)
			if err != nil {
				return a.errf(st.line, "%s: %v", st.mn, err)
			}
			e.buf = ByteOrder.AppendUint32(e.buf, w)
		}
		loc = st.addr + uint64(len(insts)*isa.InstBytes)
		if len(insts)*isa.InstBytes != st.size {
			return a.errf(st.line, "internal: %s sized %d but emitted %d bytes", st.mn, st.size, len(insts)*isa.InstBytes)
		}
	}
	a.flushChunk(&e)
	return nil
}

// emitDirective appends st's bytes to out.
func (a *assembler) emitDirective(st *stmt, out []byte) ([]byte, error) {
	put := func(v uint64, n int) {
		for k := 0; k < n; k++ {
			out = append(out, byte(v>>(8*k)))
		}
	}
	switch st.dir {
	case "byte", "half", "word", "dword", "xword", "quad":
		n := 8
		switch st.dir {
		case "byte":
			n = 1
		case "half":
			n = 2
		case "word":
			n = 4
		}
		for _, ex := range st.dirExprs {
			v, err := ex.eval(a.symbols)
			if err != nil {
				return nil, a.errf(st.line, ".%s: %v", st.dir, err)
			}
			put(uint64(v), n)
		}
	case "float":
		for _, f := range st.dirFloats {
			put(uint64(math.Float32bits(float32(f))), 4)
		}
	case "double":
		for _, f := range st.dirFloats {
			put(math.Float64bits(f), 8)
		}
	case "ascii", "asciz", "string":
		out = append(out, st.dirStr...)
	case "space", "skip":
		v, err := st.dirExprs[0].eval(a.symbols)
		if err != nil || v < 0 {
			return nil, a.errf(st.line, ".space: invalid size")
		}
		out = append(out, make([]byte, v)...)
	case "align":
		out = append(out, make([]byte, st.size)...)
	default:
		return nil, a.errf(st.line, "unknown directive .%s", st.dir)
	}
	return out, nil
}
