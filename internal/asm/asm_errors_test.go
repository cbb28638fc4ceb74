package asm

import (
	"strings"
	"testing"
)

// TestAssembleErrorPositions pins the assembler's error paths to
// positioned, self-explanatory messages: each case names the line the
// defect is on and a fragment of the diagnostic. This is what csbasm
// and csblint surface to users, so the wording is part of the
// interface.
func TestAssembleErrorPositions(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		wantPos string // "bad.s:N" prefix
		wantMsg string // substring of the message
	}{
		{
			name:    "unknown mnemonic",
			src:     "nop\nfrobnicate %g1\n",
			wantPos: "bad.s:2",
			wantMsg: "unknown mnemonic",
		},
		{
			name:    "missing operand",
			src:     "add %g1, %g2\n",
			wantPos: "bad.s:1",
			wantMsg: "expected 3 operands, got 2",
		},
		{
			name:    "store operands reversed",
			src:     "st [%o1], %g1\n",
			wantPos: "bad.s:1",
			wantMsg: "expected memory operand",
		},
		{
			name:    "memory operand missing bracket",
			src:     "ld [%o1, %g1\n",
			wantPos: "bad.s:1",
			wantMsg: "expected ']'",
		},
		{
			name:    "fp op given int register",
			src:     "fadd %g1, %f2, %f3\n",
			wantPos: "bad.s:1",
			wantMsg: "expected fp register",
		},
		{
			name:    "displacement out of range",
			src:     "nop\nstx %g1, [%o1+100000]\n",
			wantPos: "bad.s:2",
			wantMsg: "displacement 100000 out of range",
		},
		{
			name:    "immediate out of range",
			src:     "addi %g1, 100000, %g2\n",
			wantPos: "bad.s:1",
			wantMsg: "out of range",
		},
		{
			name:    "set value too large",
			src:     "set 0x100000000, %g1\n",
			wantPos: "bad.s:1",
			wantMsg: "not representable",
		},
		{
			name:    "duplicate label",
			src:     "x: nop\nx: nop\n",
			wantPos: "bad.s:2",
			wantMsg: `duplicate label "x"`,
		},
		{
			name:    "undefined branch target",
			src:     "nop\nba nowhere\n",
			wantPos: "bad.s:2",
			wantMsg: `undefined symbol "nowhere"`,
		},
		{
			name:    "equ forward reference",
			src:     ".equ X, Y\ny: nop\n",
			wantPos: "bad.s:1",
			wantMsg: "forward references not allowed",
		},
		{
			name:    "align not a power of two",
			src:     "nop\n.align 3\n",
			wantPos: "bad.s:2",
			wantMsg: "not a power of two",
		},
		{
			name:    "entry to undefined symbol",
			src:     ".entry nowhere\nnop\n",
			wantPos: "bad.s:1",
			wantMsg: `undefined symbol "nowhere"`,
		},
		{
			name:    "trailing tokens",
			src:     "add %g1, %g2, %g3 extra\n",
			wantPos: "bad.s:1",
			wantMsg: "expected ','",
		},
		{
			name:    "bad number",
			src:     "mov 0xZZ, %g1\n",
			wantPos: "bad.s:1",
			wantMsg: "bad number",
		},
		{
			name:    "word directive given string",
			src:     ".word \"hi\"\n",
			wantPos: "bad.s:1",
			wantMsg: "expected expression",
		},
		{
			name:    "double directive given symbol only",
			src:     ".double pi\n",
			wantPos: "bad.s:1",
			wantMsg: "expected float",
		},
		{
			name:    "ascii directive without string",
			src:     ".ascii 42\n",
			wantPos: "bad.s:1",
			wantMsg: "expected string",
		},
		{
			name:    "org without operand",
			src:     ".org\n",
			wantPos: "bad.s:1",
			wantMsg: ".org",
		},
		{
			name:    "space with invalid size",
			src:     ".space -1\n",
			wantPos: "bad.s:1",
			wantMsg: "invalid size",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Assemble("bad.s", tc.src)
			if err == nil {
				t.Fatalf("Assemble(%q): expected error", tc.src)
			}
			msg := err.Error()
			if !strings.HasPrefix(msg, tc.wantPos+":") {
				t.Errorf("error %q: want position prefix %q", msg, tc.wantPos)
			}
			if !strings.Contains(msg, tc.wantMsg) {
				t.Errorf("error %q: want substring %q", msg, tc.wantMsg)
			}
		})
	}
}
