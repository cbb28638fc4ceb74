package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// quickReports caches one quick invocation per mode; they are slow
// enough that every test sharing them matters.
var quickReports = map[bool]*report{}

func quickReport(t *testing.T, trace bool) *report {
	t.Helper()
	if r, ok := quickReports[trace]; ok {
		return r
	}
	r := measure(options{workloads: workloads, seed: 1, rounds: 2, trace: trace, quick: true, setups: 2})
	if !r.Correct {
		t.Fatalf("quick %s run incorrect: %s", r.Mode, r.Error)
	}
	quickReports[trace] = r
	return r
}

// Advancing in segments must reach the same simulated state as one
// segment of the summed length: for the clusters, repeated RunFor calls
// in multiples of the lookahead window match a single call.
func TestSegmentedMatchesSingleShot(t *testing.T) {
	const k = 4
	for _, w := range workloads {
		if w.quick.segCycles == 0 {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			fp := func(segCycles uint64, segs int) uint64 {
				inst, _, err := w.build(buildCfg{seed: 7, segCycles: segCycles})
				if err != nil {
					t.Fatal(err)
				}
				for range segs {
					if err := inst.segment(); err != nil {
						t.Fatal(err)
					}
				}
				if err := inst.check(); err != nil {
					t.Fatal(err)
				}
				return inst.fingerprint()
			}
			if seg, one := fp(w.quick.segCycles, k), fp(k*w.quick.segCycles, 1); seg != one {
				t.Errorf("%d segments: fingerprint %016x, one segment of the same length: %016x", k, seg, one)
			}
		})
	}
}

// The traced run checks every traced segment's fingerprint against the
// untraced one; it must pass, and each workload's own layer metrics must
// have been measured.
func TestTracedMatchesUntraced(t *testing.T) {
	r := quickReport(t, true)
	for w, name := range map[string]string{
		"stores-uncached": "cpu.host_ns_per_cycle",
		"stores-csb":      "cpu.host_ns_per_cycle",
		"ring2":           "cluster.window_ns_per_cycle",
		"serve":           "cluster.window_ns_per_cycle",
		"figures":         "bench.fig.X8_ms",
	} {
		if v := r.Workloads[w].Metrics[name].Value; v <= 0 {
			t.Errorf("%s: %s = %g, want > 0", w, name, v)
		}
	}
}

// A mirror loop out of step with sim.Machine.Tick must fail the
// fingerprint check.
func TestMirrorDivergenceDetected(t *testing.T) {
	w := findWorkload("stores-csb")
	st, err := prepare(w, options{seed: 1, trace: true, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, traced := st.slots[0], st.slots[1]
	if err := st.step(plain, true); err != nil {
		t.Fatal(err)
	}
	inst, _, err := w.build(buildCfg{seed: 1, segCycles: st.sz.segCycles, acc: &st.acc})
	if err != nil {
		t.Fatal(err)
	}
	inst.(*storeInst).busIn = 2 // bus phase off by one cycle
	traced.inst = inst
	if err := st.step(traced, true); err == nil {
		t.Fatal("mirror loop with a shifted bus phase passed the fingerprint check")
	}
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// BENCHMARK.json must declare exactly the workloads and metrics this
// package defines, and every declared metric must be emitted, with its
// unit, on every workload.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, csbperf %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, csbperf %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	var e2e, layer []metricDef
	for _, d := range metricDefs() {
		switch d.kind {
		case endToEnd:
			e2e = append(e2e, d)
		case perLayer:
			layer = append(layer, d)
		}
	}
	if len(bf.EndToEnd) != len(e2e) || len(bf.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, csbperf %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(e2e), len(layer))
	}
	for i, d := range e2e {
		m := bf.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better() || m.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, csbperf %+v", i, m, d)
		}
	}
	for i, d := range layer {
		m := bf.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better() {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, csbperf %+v", i, m, d)
		}
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, d := range metricDefs() {
		if !valid.MatchString(d.name) {
			t.Errorf("metric name %q", d.name)
		}
	}
	for _, trace := range []bool{false, true} {
		r := quickReport(t, trace)
		for _, name := range r.Order {
			one := &report{Correct: true, Order: []string{name}, Workloads: map[string]*wresult{name: r.Workloads[name]}}
			l := resultLine(one, trace)
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(l.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, want %d", name, trace, len(l.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := l.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s (trace %v): metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
			if !trace {
				for _, m := range want {
					if l.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %g, want > 0", name, m.Name, l.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}} {
		if got := quantile(s, c.p); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "segment_ms", kind: endToEnd, bound: 0.1}
	layer := metricDef{name: "cpu.host_ns_per_cycle", kind: perLayer}
	exact := metricDef{name: "cpu.ipc", kind: perLayer, exact: true, higher: true}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, base, scale(base, 0.8), "improved"},
		{lower, base, scale(base, 1.05), "no-worse-within-bound"},
		{lower, base, scale(base, 1.2), "worse"},
		{lower, base, []float64{50, 150, 60, 140, 100, 100, 70, 130, 100, 100}, "unresolved"},
		{layer, base, scale(base, 1.2), "worse"},
		{layer, base, base, "unresolved"},
		{exact, base, base, "equal"},
		{exact, base, scale(base, 1.01), "changed"},
	} {
		if got, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.d.name, c.a, c.b, got, c.want)
		}
	}
}
