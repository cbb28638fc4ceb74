package obs

import (
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
