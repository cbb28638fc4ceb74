package bench

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// experimentsDoc is EXPERIMENTS.md, relative to this package.
const experimentsDoc = "../../EXPERIMENTS.md"

// docSection returns the lines of doc from the heading line through the
// next second-level heading (or the end).
func docSection(t *testing.T, doc, heading string) string {
	t.Helper()
	i := strings.Index(doc, "\n"+heading+"\n")
	if i < 0 {
		t.Fatalf("%s has no %q section", experimentsDoc, heading)
	}
	sec := doc[i+1:]
	if j := strings.Index(sec[len(heading):], "\n## "); j >= 0 {
		sec = sec[:len(heading)+j+1]
	}
	return sec
}

// TestExperimentsTablesMatchGolden: the fenced block under "Regenerated
// tables" in EXPERIMENTS.md is the figure golden byte for byte, less
// the golden's one trailing blank line.
func TestExperimentsTablesMatchGolden(t *testing.T) {
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	sec := docSection(t, string(doc), "## Regenerated tables")
	start := strings.Index(sec, "\n```\n")
	if start < 0 {
		t.Fatal("Regenerated tables has no fenced block")
	}
	block := sec[start+len("\n```\n"):]
	end := strings.Index(block, "\n```")
	if end < 0 {
		t.Fatal("Regenerated tables' fenced block is not closed")
	}
	block = block[:end+1]
	golden, err := os.ReadFile(filepath.Join("testdata", "figures.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimSuffix(string(golden), "\n"); block != want {
		gl, bl := strings.Split(want, "\n"), strings.Split(block, "\n")
		for i := range min(len(gl), len(bl)) {
			if gl[i] != bl[i] {
				t.Fatalf("EXPERIMENTS.md table line %d differs from testdata/figures.golden:\n doc:    %q\n golden: %q", i+1, bl[i], gl[i])
			}
		}
		t.Fatalf("EXPERIMENTS.md tables have %d lines, testdata/figures.golden %d", len(bl), len(gl))
	}
}

// TestExperimentsEvidenceExists: every test the scorecard cites as
// evidence is defined in some _test.go file of the repository.
func TestExperimentsEvidenceExists(t *testing.T) {
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	sec := docSection(t, string(doc), "## Scorecard: the paper's claims vs. this reproduction")
	cited := regexp.MustCompile("`(Test\\w+)`").FindAllStringSubmatch(sec, -1)
	if len(cited) == 0 {
		t.Fatal("the scorecard cites no tests")
	}
	defined := map[string]bool{}
	funcRE := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	err = filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "../.." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcRE.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range cited {
		if !defined[m[1]] {
			t.Errorf("the scorecard cites %s, which no _test.go file defines", m[1])
		}
	}
}
