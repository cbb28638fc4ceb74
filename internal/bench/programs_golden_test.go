package bench

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"csbsim/internal/asm"
)

var updatePrograms = flag.Bool("update-programs", false, "rewrite testdata/programs.golden")

// TestProgramsGolden assembles every examples/**/*.s file and every
// distinct source the figures assemble, and compares a hash of each
// program (entry point, flattened bytes and sorted symbols) with
// testdata/programs.golden: a change to the assembler must leave every
// program it produces unchanged. Figure sources are keyed by a hash of
// their text, so the golden also fails when a figure's set of sources
// changes.
// Refresh with: go test ./internal/bench -run TestProgramsGolden -update-programs
func TestProgramsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates all figures")
	}
	var lines []string
	root := filepath.Join("..", "..", "examples")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".s" {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		name := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		lines = append(lines, "examples/"+name+" "+programHash(asm.Assemble(name, string(src))))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	figSrcs := map[string]string{} // source hash -> program hash
	defer func(orig func(string, string) (*asm.Program, error)) { assemble = orig }(assemble)
	assemble = func(name, text string) (*asm.Program, error) {
		p, err := asm.Assemble(name, text)
		h := programHash(p, err)
		mu.Lock()
		figSrcs[fmt.Sprintf("%x", sha256.Sum256([]byte(text)))[:16]] = h
		mu.Unlock()
		return p, err
	}
	for _, id := range goldenFigureIDs {
		if _, err := ByID(id); err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
	}
	var keys []string
	for k := range figSrcs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		lines = append(lines, "figure-source "+k+" "+figSrcs[k])
	}
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "programs.golden")
	if *updatePrograms {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-programs to create)", err)
	}
	if got != string(want) {
		t.Errorf("assembled programs drifted from %s (refresh with -update-programs)\ngot:\n%s", golden, got)
	}
}

// programHash is a short hash of p's entry point, flattened bytes and
// sorted symbol table, or of err's message when assembly failed.
func programHash(p *asm.Program, err error) string {
	h := sha256.New()
	if err != nil {
		fmt.Fprintf(h, "error %s\n", err)
	} else {
		base, data, err := p.Bytes()
		if err != nil {
			fmt.Fprintf(h, "bytes error %s\n", err)
		}
		fmt.Fprintf(h, "entry %#x base %#x len %d\n", p.Entry, base, len(data))
		h.Write(data)
		names := make([]string, 0, len(p.Symbols))
		for name := range p.Symbols {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			fmt.Fprintf(h, "%s=%#x\n", name, p.Symbols[name])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
