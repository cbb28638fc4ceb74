package trace

import (
	"strings"
	"testing"

	"csbsim/internal/cpu"
	"csbsim/internal/isa"
)

func ev(seq uint64, pc uint64) cpu.RetireEvent {
	return cpu.RetireEvent{
		Cycle: seq * 2, Seq: seq, PC: pc,
		Inst: isa.Inst{Op: isa.OpADDI, Rd: 1, Rs1: 1, Imm: 1},
	}
}

func TestStreamsToWriter(t *testing.T) {
	var sb strings.Builder
	r := New(&sb, 0)
	r.Record(ev(1, 0x1000))
	r.Record(ev(2, 0x1004))
	out := sb.String()
	if strings.Count(out, "\n") != 2 {
		t.Fatalf("expected 2 lines:\n%s", out)
	}
	if !strings.Contains(out, "00001000") || !strings.Contains(out, "addi") {
		t.Errorf("format wrong:\n%s", out)
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	r := New(nil, 4)
	for i := uint64(1); i <= 10; i++ {
		r.Record(ev(i, 0x1000+i*4))
	}
	if r.Count() != 10 {
		t.Errorf("count = %d", r.Count())
	}
	last := r.Last(4)
	if len(last) != 4 {
		t.Fatalf("got %d events", len(last))
	}
	for i, e := range last {
		if want := uint64(7 + i); e.Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}
	// Asking for fewer returns the newest.
	if l2 := r.Last(2); len(l2) != 2 || l2[1].Seq != 10 {
		t.Errorf("Last(2) = %+v", l2)
	}
}

func TestRingBeforeWrap(t *testing.T) {
	r := New(nil, 8)
	r.Record(ev(1, 0x1000))
	r.Record(ev(2, 0x1004))
	last := r.Last(8)
	if len(last) != 2 || last[0].Seq != 1 || last[1].Seq != 2 {
		t.Errorf("pre-wrap ring wrong: %+v", last)
	}
}

// TestRingLast checks Last across many wrap positions against a plain
// slice of everything pushed, and that Push does not allocate.
func TestRingLast(t *testing.T) {
	const capacity = 5
	r := NewRing(capacity)
	if r.Len() != 0 || len(r.Last(3)) != 0 {
		t.Fatalf("empty ring: Len %d, Last(3) %v", r.Len(), r.Last(3))
	}
	var all []cpu.RetireEvent
	for i := uint64(1); i <= 13; i++ {
		e := ev(i, 0x1000+4*i)
		r.Push(e)
		all = append(all, e)
		if want := min(len(all), capacity); r.Len() != want {
			t.Fatalf("after %d pushes Len = %d, want %d", i, r.Len(), want)
		}
		for n := 0; n <= capacity+1; n++ {
			got := r.Last(n)
			want := all[len(all)-min(n, r.Len()):]
			if len(got) != len(want) {
				t.Fatalf("after %d pushes Last(%d) has %d events, want %d", i, n, len(got), len(want))
			}
			for j := range got {
				if got[j].Seq != want[j].Seq {
					t.Fatalf("after %d pushes Last(%d)[%d].Seq = %d, want %d", i, n, j, got[j].Seq, want[j].Seq)
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Push(all[0]) }); allocs != 0 {
		t.Errorf("Push allocated %.1f times", allocs)
	}
	var nilRing *Ring
	if nilRing.Len() != 0 || nilRing.Last(4) != nil {
		t.Error("nil ring is not empty")
	}
}

func TestFilter(t *testing.T) {
	r := New(nil, 8)
	r.Filter = func(e cpu.RetireEvent) bool { return e.Inst.Op.IsMem() }
	r.Record(ev(1, 0x1000)) // addi: filtered
	r.Record(cpu.RetireEvent{Seq: 2, Inst: isa.Inst{Op: isa.OpSTX, Rd: 1, Rs1: 2}, IsMem: true})
	if r.Count() != 1 {
		t.Errorf("count = %d, want 1 (filtered)", r.Count())
	}
}

func TestFormatEventMem(t *testing.T) {
	e := cpu.RetireEvent{
		Cycle: 12, PC: 0x2000,
		Inst:  isa.Inst{Op: isa.OpLDX, Rd: 5, Rs1: 9, Imm: 8},
		IsMem: true, Addr: 0x4000_0008, Result: 0x7777,
	}
	s := FormatEvent(e)
	for _, want := range []string{"ldx", "va 40000008", "= 0x7777"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in %q", want, s)
		}
	}
}

func TestDump(t *testing.T) {
	r := New(nil, 4)
	r.Record(ev(1, 0x1000))
	var sb strings.Builder
	r.Dump(&sb)
	if !strings.Contains(sb.String(), "00001000") {
		t.Error("dump empty")
	}
}
