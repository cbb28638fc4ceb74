// Command csbasm assembles SV9L assembly and prints a listing, symbol
// table or hex image.
//
// Usage:
//
//	csbasm [-sym] [-hex] file.s
//
// By default it prints a disassembly listing of the assembled program;
// -sym adds the symbol table and -hex dumps the raw little-endian image.
// cmd/csblint runs the static checks.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"csbsim/internal/asm"
	"csbsim/internal/isa"
)

func main() {
	syms := flag.Bool("sym", false, "print the symbol table")
	hex := flag.Bool("hex", false, "dump the raw image as hex")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: csbasm [-sym] [-hex] file.s\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	file := flag.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fatal(err)
	}
	prog, err := asm.Assemble(file, string(src))
	if err != nil {
		fatal(err)
	}
	base, data, err := prog.Bytes()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d bytes at %#x, entry %#x\n", file, len(data), base, prog.Entry)

	if *syms {
		names := make([]string, 0, len(prog.Symbols))
		for n := range prog.Symbols {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return prog.Symbols[names[i]] < prog.Symbols[names[j]] })
		fmt.Println("symbols:")
		for _, n := range names {
			fmt.Printf("  %08x  %s\n", prog.Symbols[n], n)
		}
	}

	if *hex {
		for i := 0; i < len(data); i += 16 {
			end := i + 16
			if end > len(data) {
				end = len(data)
			}
			fmt.Printf("%08x: %x\n", base+uint64(i), data[i:end])
		}
		return
	}

	lines, err := prog.Disassemble(base, len(data)/isa.InstBytes)
	if err != nil {
		fatal(err)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "csbasm:", err)
	os.Exit(1)
}
