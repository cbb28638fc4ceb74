// Package asm implements a two-pass assembler for the SV9L instruction set.
//
// The syntax follows SPARC assembler conventions so that the paper's code
// listing assembles nearly verbatim:
//
//	.RETRY:
//	        set     8, %l4          ! expected value
//	        std     %f0, [%o1]      ! 8-byte store (alias for stf)
//	        std     %f10, [%o1+40]
//	        swap    [%o1], %l4      ! conditional flush
//	        cmp     %l4, 8
//	        bnz     .RETRY          ! retry on failure
//
// Comments start with '!', '#' or "//". Labels end with ':'. Constants may
// be decimal, hex (0x...), or character literals, and simple `sym+off`
// expressions are evaluated at assembly time. Directives: .org, .align,
// .byte, .half, .word, .dword, .double, .space, .ascii, .equ, .entry,
// .global (accepted, ignored).
package asm

import (
	"encoding/binary"
	"fmt"
	"sort"

	"csbsim/internal/isa"
)

// ByteOrder is the memory byte order of the simulated machine. SV9L is
// little-endian (real SPARC is big-endian; the choice affects nothing the
// paper measures and keeps encoding code simple).
var ByteOrder = binary.LittleEndian

// Chunk is a contiguous span of assembled bytes at a fixed address.
type Chunk struct {
	Addr uint64
	Data []byte
}

// Program is the output of the assembler: placed bytes plus the symbol
// table and entry point.
type Program struct {
	Entry   uint64
	Chunks  []Chunk
	Symbols map[string]uint64

	// The flattened span of Chunks (Bytes), computed once by Assemble.
	base    uint64
	flat    []byte
	flatErr error
}

// Size returns the total number of assembled bytes.
func (p *Program) Size() int {
	n := 0
	for _, c := range p.Chunks {
		n += len(c.Data)
	}
	return n
}

// Bytes returns the program flattened into a single (addr, data) span, or
// an error when its chunks overlap. The span is computed once at assembly
// and shared by every caller (programs are loaded into many machines,
// from concurrent sweep workers): callers must not modify the returned
// slice.
func (p *Program) Bytes() (uint64, []byte, error) { return p.base, p.flat, p.flatErr }

// flatten lays chunks out in address order in one buffer spanning them.
// A single chunk is its own span.
func flatten(chunks []Chunk) (uint64, []byte, error) {
	switch len(chunks) {
	case 0:
		return 0, nil, nil
	case 1:
		return chunks[0].Addr, chunks[0].Data, nil
	}
	chunks = append([]Chunk(nil), chunks...)
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].Addr < chunks[j].Addr })
	base := chunks[0].Addr
	end := base
	for _, c := range chunks {
		if c.Addr < end {
			return 0, nil, fmt.Errorf("asm: chunks overlap at %#x", c.Addr)
		}
		e := c.Addr + uint64(len(c.Data))
		if e > end {
			end = e
		}
	}
	buf := make([]byte, end-base)
	for _, c := range chunks {
		copy(buf[c.Addr-base:], c.Data)
	}
	return base, buf, nil
}

// Symbol returns the address of a defined symbol.
func (p *Program) Symbol(name string) (uint64, bool) {
	v, ok := p.Symbols[name]
	return v, ok
}

// Disassemble decodes n instructions starting at off within the flattened
// program, returning one line per instruction. It is used by cmd/csbasm and
// tests.
func (p *Program) Disassemble(addr uint64, n int) ([]string, error) {
	base, data, err := p.Bytes()
	if err != nil {
		return nil, err
	}
	var out []string
	for i := 0; i < n; i++ {
		off := addr + uint64(i*isa.InstBytes) - base
		if off+isa.InstBytes > uint64(len(data)) {
			break
		}
		w := ByteOrder.Uint32(data[off:])
		in := isa.Decode(w)
		out = append(out, fmt.Sprintf("%08x:  %08x  %s", addr+uint64(i*isa.InstBytes), w, in.String()))
	}
	return out, nil
}
