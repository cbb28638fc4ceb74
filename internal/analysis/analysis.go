// Package analysis is a self-contained static-analysis framework for the
// repository's invariant checkers, which TestModuleInvariants runs over
// every package of the module under `go test ./...`. It mirrors the shape of
// golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic — but is
// built purely on the standard library (go/ast, go/types, and export data
// produced by `go list -export`), so the module keeps its zero-dependency
// property.
//
// The analyzers it hosts enforce contracts that the simulator's results
// depend on but that ordinary tests only probe pointwise:
//
//   - noretain: pooled objects (bus.Txn, cpu uops) must not be retained
//     past the callback that delivered them;
//   - determinism: the simulation packages must produce bit-identical
//     output across runs (no wall-clock time, no math/rand, no unsorted
//     map iteration feeding output);
//   - hotalloc: functions annotated //csb:hotpath must not contain
//     heap-allocating constructs;
//   - phasesafe: code colored //csb:worker (runs on a pool thread
//     inside a node's lookahead window) must not reach cross-node shared state
//     or barrier-only APIs; colors propagate over the package call graph
//     (see BuildCallGraph);
//   - clockdomain: uint64 cycle stamps from different nodes' clocks must
//     not be compared or combined.
//
// Source pragmas recognized by the analyzers (always written as a whole
// line-comment token, like //go:noinline). Pragmas marked (reason) must
// be followed by a non-empty justification on the same line — enforced
// repo-wide by TestPragmaHygiene:
//
//	//csb:hotpath   in a function's doc comment: the function is on the
//	                per-tick hot path and is checked by hotalloc.
//	//csb:pool      on a function's doc comment or on a statement line:
//	                sanctioned pool-management code; noretain is silent.
//	//csb:alloc-ok  (reason) on a statement line inside a hot-path
//	                function: a deliberate slow-path allocation; hotalloc
//	                is silent.
//	//csb:orderless on the line of a `range` statement over a map whose
//	                iteration order provably does not affect output.
//	//csb:worker    (reason) on a function's doc comment or a go-func
//	                literal's line: the code runs on a pool thread
//	                inside a node's lookahead window; phasesafe propagates the
//	                color to everything it calls.
//	//csb:barrier   (reason) on a function's doc comment or a literal's
//	                line: barrier-only code, single-threaded between
//	                windows; phasesafe reports any call from worker color.
//	//csb:worker-ok (reason) on a statement line inside worker-phase
//	                code: a reviewed shared-state access; phasesafe is
//	                silent for that line.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -analyzers flags.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run performs the check, reporting findings via pass.Reportf.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	pragmas map[string]map[int][]string // filename → line → pragma names
	diags   []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Pragma reports whether the given //csb: pragma appears on the line of
// pos or on the line immediately above it (so a pragma can annotate a long
// statement from its own line).
func (p *Pass) Pragma(pos token.Pos, name string) bool {
	position := p.Fset.Position(pos)
	lines := p.pragmas[position.Filename]
	for _, ln := range []int{position.Line, position.Line - 1} {
		for _, pr := range lines[ln] {
			if pr == name {
				return true
			}
		}
	}
	return false
}

// FuncPragma reports whether fn's doc comment carries the given pragma.
func FuncPragma(fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if pragmaName(c.Text) == name {
			return true
		}
	}
	return false
}

// pragmaName extracts the name of a //csb: pragma comment, or "".
func pragmaName(text string) string {
	const prefix = "//csb:"
	if !strings.HasPrefix(text, prefix) {
		return ""
	}
	name := strings.TrimPrefix(text, prefix)
	if i := strings.IndexAny(name, " \t"); i >= 0 {
		name = name[:i]
	}
	return name
}

// indexPragmas builds the filename→line→pragmas table for a pass.
func (p *Pass) indexPragmas() {
	p.pragmas = make(map[string]map[int][]string)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name := pragmaName(c.Text)
				if name == "" {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				lines := p.pragmas[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					p.pragmas[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], name)
			}
		}
	}
}

// RunAnalyzers applies each analyzer to pkg and returns the combined
// findings sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
		}
		pass.indexPragmas()
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
		}
		out = append(out, pass.diags...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
