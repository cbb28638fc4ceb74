package rec

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// A fixed series table for the binding tests: counters, gauges (one
// source-wide, one per node) and histograms.
var (
	tableCtr   = []string{"dev/alpha", "dev/depth", "n1/goodput", "n1/issued", "n1/outstanding"}
	tableGauge = []bool{false, true, false, false, true}
	tableHist  = []string{"dev/lat", "n1/lat"}
)

// tableWindow is one window over the fixed table: dev/depth fell from 9
// to 5, so its stored delta is wrapped.
func tableWindow() *Window {
	return &Window{
		C0: 1000, C1: 2000,
		CtrEnd:   []uint64{40, 5, 18, 20, 2},
		CtrDelta: []uint64{10, ^uint64(3), 18, 20, 2}, // ^3 is 5-9 in uint64
		Hist:     []HistWindow{{N: 3, Sum: 30, Min: 5, P50: 10, P95: 15, P99: 15, Max: 15}, {}},
	}
}

// TestSLOBindsByKind: value binds counters and gauges; delta, rate and
// ratio skip every gauge their globs match.
func TestSLOBindsByKind(t *testing.T) {
	s, err := ParseSLO("dev/* >= 0; delta(dev/*) >= 0; rate(*) >= 0; " +
		"ratio(n1/*, n1/*) >= 0; ratio(n1/goodput, n1/outstanding) >= 0; delta(dev/depth) >= 0")
	if err != nil {
		t.Fatal(err)
	}
	bs, unbound := s.bind(tableCtr, tableGauge, tableHist)
	var got []string
	for _, b := range bs {
		got = append(got, b.rule.Agg+" "+b.series)
	}
	want := []string{
		"value dev/alpha", "value dev/depth",
		"delta dev/alpha",
		"rate dev/alpha", "rate n1/goodput", "rate n1/issued",
		"ratio n1/goodput/n1/goodput", "ratio n1/issued/n1/issued",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("bindings\n got %q\nwant %q", got, want)
	}
	if !reflect.DeepEqual(unbound, []string{"ratio(n1/goodput, n1/outstanding) >= 0", "delta(dev/depth) >= 0"}) {
		t.Errorf("unbound = %q", unbound)
	}
	// The gauge is read at its end value, never its wrapped delta.
	w := tableWindow()
	if v, ok := bs[1].value(w); !ok || v != 5 {
		t.Errorf("value(dev/depth) = %g, %v; want 5", v, ok)
	}
}

// FuzzParseSLO: no spec panics the parser; a spec that parses binds over
// the fixed table without letting delta, rate or ratio reach a gauge,
// and evaluates one window without panicking.
func FuzzParseSLO(f *testing.F) {
	f.Add("p99(cluster/loadgen/*/latency) <= 4000")
	f.Add("ratio(*/goodput, */issued) >= 0.6; dev/depth < 8 # comment; not a rule")
	f.Add("delta(*) != 0\nrate(dev/alpha) > 1.5e3")
	w := tableWindow()
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSLO(spec)
		if err != nil {
			if s != nil {
				t.Fatalf("ParseSLO returned a spec with error %v", err)
			}
			return
		}
		bs, _ := s.bind(tableCtr, tableGauge, tableHist)
		for _, b := range bs {
			agg := b.rule.Agg
			if agg != "value" && ctrAggs[agg] && (tableGauge[b.idx] || agg == "ratio" && tableGauge[b.idx2]) {
				t.Fatalf("%q bound gauge series %s", b.rule.Raw, b.series)
			}
		}
		evalBindings(bs, w, func(Event) {})
	})
}

// TestLoadSLO: an -slo argument is a literal spec or @file; both parse
// to the same rules, and a file that cannot be read is an error.
func TestLoadSLO(t *testing.T) {
	const spec = "p99(dev/lat) <= 200; rate(n1/goodput) >= 1"
	path := filepath.Join(t.TempDir(), "run.slo")
	if err := os.WriteFile(path, []byte(spec+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	lit, err := LoadSLO(spec)
	if err != nil {
		t.Fatal(err)
	}
	file, err := LoadSLO("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lit, file) {
		t.Errorf("@file parsed to %+v, the literal to %+v", file, lit)
	}
	if _, err := LoadSLO("@" + filepath.Join(t.TempDir(), "missing.slo")); err == nil {
		t.Error("@missing loaded without an error")
	}
}
