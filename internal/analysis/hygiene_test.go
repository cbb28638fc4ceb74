package analysis_test

// Annotation hygiene for the //csb: pragma vocabulary: a pragma that is
// misspelled, floats free of any declaration, or asserts a reviewed
// exemption without recording the review reason silently disables (or
// fails to enable) an analyzer. This test walks every Go file in the
// module (testdata fixtures excluded — they misuse pragmas on purpose)
// and enforces:
//
//   - only known pragma names appear (typo protection);
//   - //csb:worker, //csb:barrier, //csb:alloc-ok and //csb:worker-ok
//     carry a non-empty reason after the name;
//   - every pragma attaches to code: it is part of a declaration's doc
//     comment, or sits on (or directly above) a line containing code —
//     matching exactly where Pass.Pragma and FuncPragma look.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"csbsim/internal/analysis"
)

// knownPragmas is the full vocabulary; see the package analysis doc.
var knownPragmas = map[string]bool{
	"hotpath": true, "pool": true, "alloc-ok": true, "orderless": true,
	"worker": true, "barrier": true, "worker-ok": true,
}

// reasonRequired pragmas assert a reviewed contract or exemption; the
// review must be recorded inline.
var reasonRequired = map[string]bool{
	"worker": true, "barrier": true, "alloc-ok": true, "worker-ok": true,
}

func TestPragmaHygiene(t *testing.T) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no Go files found under module root")
	}
	for _, path := range files {
		checkFile(t, root, path)
	}
}

func checkFile(t *testing.T, root, path string) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	rel, err := filepath.Rel(root, path)
	if err != nil {
		rel = path
	}

	// Lines where code begins: any AST node position outside comments.
	codeLines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return true
		}
		codeLines[fset.Position(n.Pos()).Line] = true
		return true
	})

	// Comments that are a declaration's doc group are attached by
	// definition (FuncPragma reads them there).
	docComments := make(map[*ast.Comment]bool)
	markDoc := func(cg *ast.CommentGroup) {
		if cg == nil {
			return
		}
		for _, c := range cg.List {
			docComments[c] = true
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			markDoc(d.Doc)
		case *ast.GenDecl:
			markDoc(d.Doc)
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					markDoc(s.Doc)
				case *ast.ValueSpec:
					markDoc(s.Doc)
				}
			}
		}
	}

	for _, cg := range f.Comments {
		for _, c := range cg.List {
			name, reason, ok := pragma(c.Text)
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			if !knownPragmas[name] {
				t.Errorf("%s:%d: unknown pragma //csb:%s (known: hotpath, pool, alloc-ok, orderless, worker, barrier, worker-ok)",
					rel, line, name)
				continue
			}
			if reasonRequired[name] && reason == "" {
				t.Errorf("%s:%d: //csb:%s needs a reason: the pragma records a reviewed contract, write down why it holds",
					rel, line, name)
			}
			if !docComments[c] && !codeLines[line] && !codeLines[line+1] {
				t.Errorf("%s:%d: orphaned //csb:%s — not in a doc comment and no code on this line or the next; the analyzers will never see it",
					rel, line, name)
			}
		}
	}
}

// pragma splits a comment into (//csb: name, reason); reason has leading
// separators (spaces, dashes) trimmed so `//csb:orderless — why` counts.
func pragma(text string) (name, reason string, ok bool) {
	const prefix = "//csb:"
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, prefix)
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name, reason = rest[:i], rest[i+1:]
	} else {
		name = rest
	}
	reason = strings.TrimLeft(reason, " \t-—–")
	reason = strings.TrimSpace(reason)
	return name, reason, true
}
