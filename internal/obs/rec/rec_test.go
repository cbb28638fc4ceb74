package rec

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/journey"
)

// testSource builds a registry with two counters and one histogram the
// tests drive by hand.
func testSource() (*counters.Registry, *uint64, *uint64, *counters.Histogram) {
	reg := counters.NewRegistry()
	a, b := new(uint64), new(uint64)
	reg.Counter("alpha", func() uint64 { return *a })
	reg.Counter("beta", func() uint64 { return *b })
	h := reg.Histogram("lat")
	return reg, a, b, h
}

func TestParseSLO(t *testing.T) {
	s, err := ParseSLO("p99(dev/lat) <= 100; dev/alpha == 0\n# comment\nrate(dev/*) > 1.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rules) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(s.Rules))
	}
	if r := s.Rules[0]; r.Agg != "p99" || r.Arg1 != "dev/lat" || r.Op != "<=" || r.Threshold != 100 {
		t.Errorf("rule 0 parsed as %+v", r)
	}
	// A bare series means value(series).
	if r := s.Rules[1]; r.Agg != "value" || r.Arg1 != "dev/alpha" || r.Op != "==" {
		t.Errorf("rule 1 parsed as %+v", r)
	}
	for _, bad := range []string{
		"",                     // empty spec
		"dev/alpha",            // no operator
		"frob(dev/alpha) <= 1", // unknown aggregation
		"ratio(dev/a) >= 0.5",  // ratio needs two series
		"p99(a, b) <= 1",       // one-series agg given two
		"ratio(a/*, b) >= 0.5", // glob count mismatch
		"dev/alpha <= fast",    // non-numeric threshold
		"p99(dev/lat <= 100",   // unclosed paren
	} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q) accepted", bad)
		}
	}
}

func TestGlobMatching(t *testing.T) {
	cases := []struct {
		pat, name string
		want      bool
	}{
		{"cluster/loadgen/*/latency", "cluster/loadgen/n3/latency", true},
		{"cluster/loadgen/*/latency", "cluster/loadgen/n3/goodput", false},
		{"*", "anything/at/all", true},
		{"n0/*", "n0/cluster/packets_sent", true},
		{"n0/*", "n10/cluster/packets_sent", false},
		{"exact", "exact", true},
		{"exact", "exactly", false},
		{"*/e2e/*", "a/e2e/b", true},
	}
	for _, c := range cases {
		if got := MatchSeries(c.pat, c.name); got != c.want {
			t.Errorf("MatchSeries(%q, %q) = %v, want %v", c.pat, c.name, got, c.want)
		}
	}
	// Ratio pairing: captures from the first pattern substitute into the
	// second, so per-node numerators find per-node denominators.
	caps, ok := globMatch("loadgen/*/good", "loadgen/n7/good")
	if !ok || len(caps) != 1 || caps[0] != "n7" {
		t.Fatalf("globMatch captures = %v, %v", caps, ok)
	}
	if got := substitute("loadgen/*/issued", caps); got != "loadgen/n7/issued" {
		t.Errorf("substitute = %q", got)
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	reg, a, b, h := testSource()
	// A second source whose registered names already carry its prefix
	// must not be double-prefixed (the cluster registry does this).
	preReg := counters.NewRegistry()
	pv := new(uint64)
	preReg.Gauge("pre/gauge", func() uint64 { return *pv })

	r, err := New(Config{Every: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddSource("dev", reg); err != nil {
		t.Fatal(err)
	}
	if err := r.AddSource("pre", preReg); err != nil {
		t.Fatal(err)
	}
	if err := r.AddSource("dev", reg); err == nil {
		t.Error("duplicate source accepted")
	}
	var buf bytes.Buffer
	if err := r.SetWriter(&buf); err != nil {
		t.Fatal(err)
	}
	// delta binds counters only, so the last rule matches nothing.
	slo, err := ParseSLO("p99(dev/lat) <= 50; pre/gauge >= 2; nosuch/series == 0; delta(pre/*) >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetSLO(slo); err != nil {
		t.Fatal(err)
	}

	r.Start(0)
	if err := r.AddSource("late", reg); err == nil {
		t.Error("post-seal AddSource accepted")
	}
	wantCtr := []string{"dev/alpha", "dev/beta", "pre/gauge"}
	if got := strings.Join(r.CounterNames(), ","); got != strings.Join(wantCtr, ",") {
		t.Fatalf("counter series = %q", got)
	}
	if got := strings.Join(r.HistNames(), ","); got != "dev/lat" {
		t.Fatalf("hist series = %q", got)
	}

	// Window 1: quiet latencies, counters move forward.
	*a, *b, *pv = 10, 5, 3
	for i := uint64(1); i <= 20; i++ {
		h.Record(i) // bit-lengths 1..5, p99 well under 50
	}
	r.Event(80, "node_down", "n1", "", 1)
	r.Roll(100)
	// Window 2: slow latencies breach the p99 rule; the gauge falls
	// below its floor.
	*a, *pv = 25, 1
	h.Record(4000)
	h.Record(5000)
	r.Roll(200)
	r.Roll(200) // same cycle: must be a no-op
	// Window 3: latencies and the gauge recover.
	h.Record(2)
	*pv = 4
	r.Roll(300)
	r.Flush(350) // final partial window + footer
	r.Flush(350) // second flush must not write a second footer
	if r.Err() != nil {
		t.Fatal(r.Err())
	}

	rc, err := Read(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Clean || rc.Truncated {
		t.Errorf("clean=%v truncated=%v, want clean close", rc.Clean, rc.Truncated)
	}
	if rc.Version != FormatVersion || rc.Every != 100 {
		t.Errorf("version=%d every=%d", rc.Version, rc.Every)
	}
	if len(rc.Windows) != 4 {
		t.Fatalf("read %d windows, want 4 (3 rolls + flush partial)", len(rc.Windows))
	}
	ai := rc.CounterIndex("dev/alpha")
	gi := rc.CounterIndex("pre/gauge")
	hi := rc.HistIndex("dev/lat")
	if ai < 0 || gi < 0 || hi < 0 {
		t.Fatalf("series lookup failed: %d %d %d", ai, gi, hi)
	}
	w0, w1 := &rc.Windows[0], &rc.Windows[1]
	if w0.CtrEnd[ai] != 10 || w0.CtrDelta[ai] != 10 {
		t.Errorf("window 0 dev/alpha = end %d delta %d", w0.CtrEnd[ai], w0.CtrDelta[ai])
	}
	if w1.CtrEnd[ai] != 25 || w1.CtrDelta[ai] != 15 {
		t.Errorf("window 1 dev/alpha = end %d delta %d", w1.CtrEnd[ai], w1.CtrDelta[ai])
	}
	if !rc.IsGauge(gi) || rc.IsGauge(ai) || rc.IsGauge(rc.CounterIndex("dev/beta")) {
		t.Errorf("gauge kinds read back as %v, want only pre/gauge", rc.Gauge)
	}
	// A gauge's row keeps the counter frame: its end is the value, and
	// its delta is v-prev in uint64 arithmetic, wrapped when it falls.
	if w1.CtrEnd[gi] != 1 || w1.CtrDelta[gi] != ^uint64(1) {
		t.Errorf("falling gauge row = [%d,%d], want [1,2^64-2]", w1.CtrEnd[gi], w1.CtrDelta[gi])
	}
	if w0.Hist[hi].N != 20 || w0.Hist[hi].P99 > 50 {
		t.Errorf("window 0 hist = %+v", w0.Hist[hi])
	}
	if w1.Hist[hi].N != 2 || w1.Hist[hi].P99 <= 50 {
		t.Errorf("window 1 hist = %+v (want 2 slow samples)", w1.Hist[hi])
	}
	// Window quantiles are per-window: window 2's single fast sample must
	// not be polluted by window 1's slow ones.
	if w2 := &rc.Windows[2]; w2.Hist[hi].N != 1 || w2.Hist[hi].P99 > 3 {
		t.Errorf("window 2 hist = %+v (cumulative leak?)", w2.Hist[hi])
	}

	// Events: the unbound rule surfaces, the hand-logged event lands, and
	// the SLO transitions breach at window 2 and recover at window 3.
	kinds := map[string]int{}
	for _, ev := range rc.Events {
		kinds[ev.Kind]++
	}
	if kinds["slo_unbound"] != 2 || kinds["node_down"] != 1 {
		t.Errorf("event kinds = %v", kinds)
	}
	// Two breaches in window 2 — the slow p99 and the gauge at 1 < 2 —
	// and both recover in window 3.
	if kinds["slo_breach"] != 2 || kinds["slo_recover"] != 2 {
		t.Errorf("SLO transitions = %v, want two breaches + two recoveries", kinds)
	}
	// WindowAt finds the covering window.
	if w, ok := rc.WindowAt(150); !ok || w.Index != 1 {
		t.Errorf("WindowAt(150) = %+v, %v", w, ok)
	}

	// Offline Check replays to the same verdicts the live engine logged.
	res := slo.Check(rc)
	if len(res.Unbound) != 2 || res.Unbound[0] != "nosuch/series == 0" || res.Unbound[1] != "delta(pre/*) >= 0" {
		t.Errorf("check unbound = %v", res.Unbound)
	}
	gotLive := 0
	for _, ev := range rc.Events {
		if ev.Kind == "slo_breach" || ev.Kind == "slo_recover" {
			gotLive++
		}
	}
	if len(res.Events) != gotLive {
		t.Errorf("offline check logged %d transitions, live logged %d", len(res.Events), gotLive)
	}
	if len(res.Active) != 0 {
		t.Errorf("active at end = %v, want none (recovered)", res.Active)
	}
}

func TestReadTruncatedTail(t *testing.T) {
	reg, a, _, _ := testSource()
	r, _ := New(Config{Every: 10})
	if err := r.AddSource("dev", reg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r.SetWriter(&buf)
	r.Start(0)
	*a = 1
	r.Roll(10)
	*a = 2
	r.Roll(20)
	whole := buf.Len()
	*a = 3
	r.Roll(30)

	// No footer yet: a valid prefix, just not cleanly closed.
	rc, err := Read(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if rc.Clean || rc.Truncated || len(rc.Windows) != 3 {
		t.Errorf("unflushed: clean=%v truncated=%v windows=%d", rc.Clean, rc.Truncated, len(rc.Windows))
	}
	// Chop into the middle of the last frame: the tail is dropped, the
	// prefix survives, Truncated is reported.
	cut := buf.Bytes()[:whole+7]
	rc, err = Read(cut)
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Truncated || len(rc.Windows) != 2 {
		t.Errorf("truncated: truncated=%v windows=%d, want 2", rc.Truncated, len(rc.Windows))
	}
	// Garbage and headerless files are errors, not panics.
	if _, err := Read([]byte("not a recording")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(nil); err == nil {
		t.Error("empty file accepted")
	}
}

func TestDiff(t *testing.T) {
	record := func(perturb bool) *Recording {
		reg, a, _, h := testSource()
		r, _ := New(Config{Every: 10})
		if err := r.AddSource("dev", reg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		r.SetWriter(&buf)
		r.Start(0)
		*a = 100
		h.Record(7)
		r.Roll(10)
		if perturb {
			*a = 205
		} else {
			*a = 200
		}
		r.Roll(20)
		r.Flush(20)
		rc, err := Read(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return rc
	}
	same1, same2, other := record(false), record(false), record(true)
	if d := Diff(same1, same2, 0); len(d) != 0 {
		t.Errorf("identical recordings diff: %v", d)
	}
	d := Diff(same1, other, 0)
	if len(d) == 0 {
		t.Fatal("perturbed recording diffed empty")
	}
	found := false
	for _, line := range d {
		if strings.Contains(line, "dev/alpha") {
			found = true
		}
	}
	if !found {
		t.Errorf("diff lines name no series: %v", d)
	}
	// 205 vs 200 is 2.5%: a 5% tolerance accepts it.
	if d := Diff(same1, other, 0.05); len(d) != 0 {
		t.Errorf("tolerant diff still reports: %v", d)
	}
}

// TestRollAllocFree pins the satellite requirement: once the scratch
// buffers have grown, a steady-state Roll (no events firing) performs
// zero heap allocations, so per-window rollups never pressure the GC
// mid-run.
func TestRollAllocFree(t *testing.T) {
	reg, a, _, h := testSource()
	r, _ := New(Config{Every: 10})
	if err := r.AddSource("dev", reg); err != nil {
		t.Fatal(err)
	}
	var sink discardWriter
	r.SetWriter(&sink)
	slo, err := ParseSLO("p99(dev/lat) <= 1000000; delta(dev/alpha) >= 0")
	if err != nil {
		t.Fatal(err)
	}
	r.SetSLO(slo)
	r.Start(0)
	cycle := uint64(0)
	step := func() {
		cycle += 10
		*a += 3
		h.Record(cycle & 1023)
		r.Roll(cycle)
	}
	// Warm up past ring wrap and scratch growth.
	for i := 0; i < 20; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Errorf("steady-state Roll allocates %.1f times per window, want 0", avg)
	}
}

// discardWriter is io.Discard without the io.ReaderFrom fast path, so
// the recorder's own Write call is what is measured.
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestJourneyFrameMatchesMarshal holds writeJourney, which appends a "j"
// frame into the recorder's scratch buffer, to the bytes json.Marshal
// gives the same journey as the reader's journeyJSON: randomized
// journeys of every kind, wire journeys with their receiver and link,
// every flag combination, set and node names that need escaping, and a
// journey that names no node (the source's name is used).
func TestJourneyFrameMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"machine", "n0", "n12", "", `a"b\c`, "<&>", "tab\there", "é"}
	kinds := []journey.Kind{journey.KindUncachedStore, journey.KindCSBStore, journey.KindNICDesc, journey.KindWire}
	var out bytes.Buffer
	r := &Recorder{w: &out}
	for i := 0; i < 2000; i++ {
		j := journey.Journey{
			ID:        rng.Uint64() >> uint(rng.Intn(64)),
			Kind:      kinds[i%len(kinds)],
			Node:      names[rng.Intn(len(names))],
			Addr:      rng.Uint64() >> uint(rng.Intn(64)),
			Size:      rng.Uint32() >> uint(rng.Intn(32)),
			Coalesced: rng.Intn(2) == 0,
			Aborted:   rng.Intn(2) == 0,
			Done:      rng.Intn(2) == 0,
		}
		if j.Kind == journey.KindWire {
			j.To = names[rng.Intn(len(names))]
			if rng.Intn(4) != 0 {
				j.Link = rng.Uint64() >> uint(rng.Intn(64))
			}
		}
		for h := range j.T {
			j.T[h] = rng.Uint64() >> uint(rng.Intn(64))
		}
		set, source := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
		node := j.Node
		if node == "" {
			node = source
		}
		want, err := json.Marshal(struct {
			K string `json:"k"`
			journeyJSON
		}{"j", journeyJSON{set, node, j.To, j.ID, j.Kind.String(), j.Link, j.Addr, j.Size,
			j.T[:j.Kind.Last()+1], j.Coalesced, j.Aborted, j.Done}})
		if err != nil {
			t.Fatal(err)
		}
		out.Reset()
		r.writeJourney(set, source, &j)
		got := out.Bytes()
		prefix := strconv.Itoa(len(want)) + "\n"
		if !bytes.HasPrefix(got, []byte(prefix)) || !bytes.Equal(got[len(prefix):], append(want, '\n')) {
			t.Fatalf("journey %+v (set %q, source %q):\nframe   %s\nmarshal %s", j, set, source, got, want)
		}
	}
}
