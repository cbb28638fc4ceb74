package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCPIStackTotalAndStalls(t *testing.T) {
	var s CPIStack
	for i := 0; i < 10; i++ {
		s.Add(CauseCommit)
	}
	for i := 0; i < 7; i++ {
		s.Add(CauseUncached)
	}
	s.Add(CauseCSB)
	if got := s.Total(); got != 18 {
		t.Errorf("Total = %d, want 18", got)
	}
	if got := s.StallCycles(); got != 8 {
		t.Errorf("StallCycles = %d, want 8", got)
	}
}

func TestCPIStackFormat(t *testing.T) {
	var s CPIStack
	s[CauseCommit] = 50
	s[CauseUncached] = 30
	s[CauseDCache] = 20
	out := s.Format()
	if !strings.Contains(out, "100 cycles") {
		t.Errorf("missing total:\n%s", out)
	}
	// Commit first, then stalls in descending order; zero buckets absent.
	ci := strings.Index(out, "commit")
	ui := strings.Index(out, "uncached-drain")
	di := strings.Index(out, "dcache")
	if ci < 0 || ui < 0 || di < 0 || !(ci < ui && ui < di) {
		t.Errorf("bucket order wrong (commit=%d uncached=%d dcache=%d):\n%s", ci, ui, di, out)
	}
	if strings.Contains(out, "tlb-walk") {
		t.Errorf("zero bucket rendered:\n%s", out)
	}
	if !strings.Contains(out, "50.0%") || !strings.Contains(out, "30.0%") {
		t.Errorf("percentages wrong:\n%s", out)
	}
}

func TestCPIStackFormatEmpty(t *testing.T) {
	var s CPIStack
	if out := s.Format(); !strings.Contains(out, "0 cycles") {
		t.Errorf("empty stack format:\n%s", out)
	}
}

func TestCPIStackMarshalJSON(t *testing.T) {
	var s CPIStack
	s[CauseCommit] = 5
	s[CauseMembar] = 2
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]uint64
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("not a JSON object: %v\n%s", err, data)
	}
	if len(m) != int(NumCauses) {
		t.Errorf("got %d buckets, want all %d (stable schema)", len(m), NumCauses)
	}
	if m["commit"] != 5 || m["membar"] != 2 || m["tlb-walk"] != 0 {
		t.Errorf("bucket values wrong: %v", m)
	}
}

func TestStallCauseString(t *testing.T) {
	if CauseCommit.String() != "commit" || CauseCSB.String() != "csb-busy" {
		t.Error("cause names wrong")
	}
	if got := StallCause(200).String(); got != "cause-200" {
		t.Errorf("out-of-range cause = %q", got)
	}
}

func TestInstEventSpan(t *testing.T) {
	e := InstEvent{Fetch: 10, Dispatch: 12, Issue: 14, Complete: 20, Retire: 25}
	if s, r := e.Span(); s != 10 || r != 25 {
		t.Errorf("Span = %d..%d, want 10..25", s, r)
	}
	// Retire-executed ops have no issue stamp; zero stamps are skipped.
	e2 := InstEvent{Dispatch: 5, Retire: 9}
	if s, r := e2.Span(); s != 5 || r != 9 {
		t.Errorf("Span = %d..%d, want 5..9", s, r)
	}
}

// TestPerfettoRoundTrip checks that the exported document is valid JSON in
// the Chrome trace-event shape Perfetto loads, and that instruction and
// bus events survive the trip.
func TestPerfettoRoundTrip(t *testing.T) {
	p := NewPerfetto()
	p.AddInst(InstEvent{Seq: 1, PC: 0x1000, Disasm: "stx %o0, [%o1]",
		Fetch: 2, Dispatch: 4, Retire: 9, IsMem: true, Addr: 0x4000_0000})
	p.AddInst(InstEvent{Seq: 2, PC: 0x1004, Disasm: "halt", Retire: 9})
	p.AddBus(BusEvent{Start: 12, End: 30, Addr: 0x4000_0000, Size: 8, Write: true, IO: true})
	if p.Count() != 2 {
		t.Errorf("Count = %d, want 2", p.Count())
	}

	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   uint64         `json:"ts"`
			Dur  uint64         `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	byPh := map[string]int{}
	for _, e := range doc.TraceEvents {
		byPh[e.Ph]++
	}
	if byPh["M"] != 2 {
		t.Errorf("want 2 process-name metadata events, got %d", byPh["M"])
	}
	if byPh["X"] != 3 {
		t.Errorf("want 3 slices (2 inst + 1 bus), got %d", byPh["X"])
	}
	if len(byPh) != 2 {
		t.Errorf("event phases %v, want only M and X", byPh)
	}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Dur == 0 {
			t.Errorf("zero-duration slice %q would vanish in the UI", e.Name)
		}
		if e.Name == "stx %o0, [%o1]" {
			if e.Ts != 2 || e.Dur != 7 {
				t.Errorf("inst slice ts/dur = %d/%d, want 2/7", e.Ts, e.Dur)
			}
			if e.Args["va"] != "0x40000000" {
				t.Errorf("inst args missing va: %v", e.Args)
			}
		}
		if strings.HasPrefix(e.Name, "WR") && e.PID != 2 {
			t.Errorf("bus slice on pid %d, want the bus process", e.PID)
		}
	}
}

func TestPerfettoLaneRotation(t *testing.T) {
	p := NewPerfetto()
	p.Lanes = 4
	seen := map[int]bool{}
	for seq := uint64(0); seq < 8; seq++ {
		p.AddInst(InstEvent{Seq: seq, Retire: seq + 1})
	}
	var buf bytes.Buffer
	p.WriteTo(&buf)
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			TID int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			seen[e.TID] = true
		}
	}
	if len(seen) != 4 {
		t.Errorf("instructions spread over %d lanes, want 4", len(seen))
	}
}

func TestFormatPipeline(t *testing.T) {
	out := FormatPipeline([]InstEvent{
		{Seq: 1, PC: 0x1000, Disasm: "add %o0, 1, %o0", Fetch: 1, Dispatch: 3, Issue: 4, Complete: 5, Retire: 6},
		{Seq: 2, PC: 0x1004, Disasm: "halt", Fetch: 1, Dispatch: 3, Retire: 7},
	})
	for _, want := range []string{"add %o0, 1, %o0", "halt", "F", "D", "I", "C", "R"} {
		if !strings.Contains(out, want) {
			t.Errorf("diagram missing %q:\n%s", want, out)
		}
	}
	if FormatPipeline(nil) != "(no instructions retired)\n" {
		t.Error("empty diagram")
	}
}

func TestFormatPipelineClipsWideWindows(t *testing.T) {
	out := FormatPipeline([]InstEvent{
		{Seq: 1, Fetch: 1, Retire: 2},
		{Seq: 2, Fetch: 5000, Retire: 5010},
	})
	for _, line := range strings.Split(out, "\n") {
		if len(line) > 200 {
			t.Errorf("line not clipped (%d cols): %q...", len(line), line[:60])
		}
	}
}
