package asm

import "fmt"

// expr is a constant expression: a sum of signed terms, where each term is
// either a literal or a symbol reference. This covers everything the
// microbenchmarks and examples need (label, label+off, a-b, plain numbers)
// without a full expression grammar. The first term is held inline and
// only further ones go to more, so a literal, a label or a [reg+off]
// displacement allocates nothing; the zero expr is the literal 0.
type expr struct {
	first exprTerm
	more  []exprTerm
}

type exprTerm struct {
	neg bool
	num int64
	sym string // empty for literal terms
}

// eval resolves the expression against a symbol table.
func (e expr) eval(syms map[string]uint64) (int64, error) {
	v, err := e.first.eval(syms)
	if err != nil {
		return 0, err
	}
	for _, t := range e.more {
		tv, err := t.eval(syms)
		if err != nil {
			return 0, err
		}
		v += tv
	}
	return v, nil
}

// eval returns the term's signed value.
func (t exprTerm) eval(syms map[string]uint64) (int64, error) {
	tv := t.num
	if t.sym != "" {
		sv, ok := syms[t.sym]
		if !ok {
			return 0, fmt.Errorf("undefined symbol %q", t.sym)
		}
		tv = int64(sv)
	}
	if t.neg {
		return -tv, nil
	}
	return tv, nil
}

// hasSym reports whether the expression references a symbol.
func (e expr) hasSym() bool {
	if e.first.sym != "" {
		return true
	}
	for _, t := range e.more {
		if t.sym != "" {
			return true
		}
	}
	return false
}

// symbols returns the symbols referenced by the expression.
func (e expr) symbols() []string {
	var out []string
	if e.first.sym != "" {
		out = append(out, e.first.sym)
	}
	for _, t := range e.more {
		if t.sym != "" {
			out = append(out, t.sym)
		}
	}
	return out
}

// parseExpr parses a sum expression from toks starting at *i, leaving *i at
// the first token that is not part of the expression.
func parseExpr(toks []token, i *int) (expr, error) {
	var e expr
	neg := false
	first := true
	for {
		if *i < len(toks) && toks[*i].kind == tokPunct {
			switch toks[*i].text {
			case "-":
				neg = !neg
				*i++
				continue
			case "+":
				*i++
				continue
			}
		}
		if *i >= len(toks) {
			return e, fmt.Errorf("expected expression term")
		}
		t := toks[*i]
		var term exprTerm
		switch t.kind {
		case tokNumber:
			term = exprTerm{neg: neg, num: t.num}
		case tokIdent:
			term = exprTerm{neg: neg, sym: t.text}
		default:
			if first {
				return e, fmt.Errorf("expected expression, found %s", t)
			}
			return e, nil
		}
		if first {
			e.first = term
		} else {
			e.more = append(e.more, term)
		}
		*i++
		neg = false
		first = false
		// Continue only if the next token is +/-.
		if *i < len(toks) && toks[*i].kind == tokPunct && (toks[*i].text == "+" || toks[*i].text == "-") {
			continue
		}
		return e, nil
	}
}
