package analysis_test

import (
	"path/filepath"
	"testing"

	"csbsim/internal/analysis"
	"csbsim/internal/analysis/clockdomain"
	"csbsim/internal/analysis/determinism"
	"csbsim/internal/analysis/hotalloc"
	"csbsim/internal/analysis/noretain"
	"csbsim/internal/analysis/phasesafe"
)

// TestModuleInvariants runs every invariant analyzer over every package
// of the module, so `go test ./...` fails on a retained pooled pointer,
// wall-clock time or math/rand in a simulation package, an allocation in
// a //csb:hotpath function, worker-phase code reaching barrier-only
// state, or two nodes' cycle stamps mixed. Each finding is one test
// error at its file:line:col.
func TestModuleInvariants(t *testing.T) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := analysis.NewLoader(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	analyzers := []*analysis.Analyzer{
		noretain.Analyzer,
		determinism.Analyzer,
		hotalloc.Analyzer,
		phasesafe.Analyzer,
		clockdomain.Analyzer,
	}
	targets := l.Targets()
	if len(targets) == 0 {
		t.Fatal("no packages listed under the module root")
	}
	for _, path := range targets {
		pkg, err := l.LoadTarget(path)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := analysis.RunAnalyzers(pkg, analyzers)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
				d.Pos.Filename = rel
			}
			t.Errorf("%s", d)
		}
	}
	t.Logf("%d packages checked", len(targets))
}
