package sim

import (
	"testing"

	"csbsim/internal/cpu"
	"csbsim/internal/isa"
)

func ringEv(seq uint64, pc uint64) cpu.RetireEvent {
	return cpu.RetireEvent{
		Cycle: seq * 2, Seq: seq, PC: pc,
		Inst: isa.Inst{Op: isa.OpADDI, Rd: 1, Rs1: 1, Imm: 1},
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	r := newRing[cpu.RetireEvent](4)
	for i := uint64(1); i <= 10; i++ {
		r.push(ringEv(i, 0x1000+i*4))
	}
	if r.size() != 4 || r.capacity() != 4 {
		t.Errorf("size %d, capacity %d, want 4/4", r.size(), r.capacity())
	}
	last := r.last(4)
	if len(last) != 4 {
		t.Fatalf("got %d events", len(last))
	}
	for i, e := range last {
		if want := uint64(7 + i); e.Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}
	// Asking for fewer returns the newest.
	if l2 := r.last(2); len(l2) != 2 || l2[1].Seq != 10 {
		t.Errorf("last(2) = %+v", l2)
	}
}

func TestRingBeforeWrap(t *testing.T) {
	r := newRing[cpu.RetireEvent](8)
	r.push(ringEv(1, 0x1000))
	r.push(ringEv(2, 0x1004))
	last := r.last(8)
	if len(last) != 2 || last[0].Seq != 1 || last[1].Seq != 2 {
		t.Errorf("pre-wrap ring wrong: %+v", last)
	}
}

// TestRingLast checks last across many wrap positions against a plain
// slice of everything pushed, and that push does not allocate.
func TestRingLast(t *testing.T) {
	const capacity = 5
	r := newRing[cpu.RetireEvent](capacity)
	if r.size() != 0 || len(r.last(3)) != 0 {
		t.Fatalf("empty ring: size %d, last(3) %v", r.size(), r.last(3))
	}
	var all []cpu.RetireEvent
	for i := uint64(1); i <= 13; i++ {
		e := ringEv(i, 0x1000+4*i)
		r.push(e)
		all = append(all, e)
		if want := min(len(all), capacity); r.size() != want {
			t.Fatalf("after %d pushes size = %d, want %d", i, r.size(), want)
		}
		for n := 0; n <= capacity+1; n++ {
			got := r.last(n)
			want := all[len(all)-min(n, r.size()):]
			if len(got) != len(want) {
				t.Fatalf("after %d pushes last(%d) has %d events, want %d", i, n, len(got), len(want))
			}
			for j := range got {
				if got[j].Seq != want[j].Seq {
					t.Fatalf("after %d pushes last(%d)[%d].Seq = %d, want %d", i, n, j, got[j].Seq, want[j].Seq)
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { r.push(all[0]) }); allocs != 0 {
		t.Errorf("push allocated %.1f times", allocs)
	}
	var nilRing *ring[cpu.RetireEvent]
	if nilRing.size() != 0 || nilRing.last(4) != nil {
		t.Error("nil ring is not empty")
	}
}
