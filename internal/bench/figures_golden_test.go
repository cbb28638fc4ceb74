package bench

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateFigures = flag.Bool("update", false, "rewrite testdata/figures.golden")

// goldenFigureIDs are the 22 figures `csbfig -list` offers: the paper's
// figures 3a-5b and the extensions.
var goldenFigureIDs = []string{
	"3a", "3b", "3c", "3d", "3e", "3f", "3g", "3h", "3i",
	"4a", "4b", "4c", "4d", "4e",
	"5a", "5b",
	"X1", "X2", "X2L", "X4", "X6", "X8",
}

// TestFigureTablesGolden regenerates every figure and compares its text
// table, as csbfig prints it, byte for byte with testdata/figures.golden:
// a change to the simulator's speed must leave every figure unchanged.
// Refresh with: go test ./internal/bench -run TestFigureTablesGolden -update
func TestFigureTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates all figures")
	}
	var got strings.Builder
	for _, id := range goldenFigureIDs {
		r, err := ByID(id)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		got.WriteString(Format(r))
		got.WriteString("\n")
	}
	golden := filepath.Join("testdata", "figures.golden")
	if *updateFigures {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got.String() != string(want) {
		t.Errorf("figure tables drifted from %s (refresh with -update)\ngot:\n%s", golden, got.String())
	}
}

// TestAllMatchesByID: All returns the paper's figures 3a-5b, in order,
// exactly as ByID regenerates them one at a time.
func TestAllMatchesByID(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the paper's figures twice")
	}
	all, err := All()
	if err != nil {
		t.Fatal(err)
	}
	paper := goldenFigureIDs[:16] // 3a-3i, 4a-4e, 5a, 5b
	if len(all) != len(paper) {
		t.Fatalf("All returned %d figures, want %d", len(all), len(paper))
	}
	for i, id := range paper {
		r, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(all[i], r) {
			t.Errorf("All()[%d] = figure %s, differs from ByID(%q) = %s", i, all[i].ID, id, r.ID)
		}
	}
}
