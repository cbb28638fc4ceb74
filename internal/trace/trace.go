// Package trace records and formats retired-instruction traces from the
// simulated processor — the commit-order view of execution, which is what
// one debugs programs (and the simulator itself) against.
package trace

import (
	"fmt"
	"io"
	"strings"

	"csbsim/internal/cpu"
)

// Ring keeps the most recent events in a fixed-capacity buffer. Push is
// allocation-free, so a ring can ride the retire hook or the bus
// observer of a zero-alloc tick loop (the machine's retired-instruction
// and bus-transaction rings do).
type Ring[T any] struct {
	buf  []T
	next int
	full bool
}

// NewRing creates a ring holding the last capacity events (at least 1).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, max(capacity, 1))}
}

// Push records one event, evicting the oldest at capacity.
//
//csb:hotpath
func (r *Ring[T]) Push(ev T) {
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Cap returns the number of events the ring holds once full.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the number of events held (0 for a nil ring).
func (r *Ring[T]) Len() int {
	if r == nil {
		return 0
	}
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Last returns a copy of up to n most recent events, oldest first (nil
// for a nil ring).
func (r *Ring[T]) Last(n int) []T {
	if r == nil {
		return nil
	}
	k := min(n, r.Len())
	out := make([]T, k)
	start := r.next - k
	if start < 0 {
		start += len(r.buf)
	}
	copied := copy(out, r.buf[start:])
	copy(out[copied:], r.buf)
	return out
}

// Recorder streams retire events to a writer, one formatted line each.
type Recorder struct {
	w io.Writer
}

// New creates a recorder that streams formatted events to w.
func New(w io.Writer) *Recorder { return &Recorder{w: w} }

// Attach hooks the recorder to a CPU. It registers alongside any other
// retire observers.
func (r *Recorder) Attach(c *cpu.CPU) {
	c.AttachRetire(r.Record)
}

// Record writes one event (usable directly as a retire observer).
func (r *Recorder) Record(ev cpu.RetireEvent) {
	fmt.Fprintln(r.w, FormatEvent(ev))
}

// FormatEvent renders one event as a single trace line.
func FormatEvent(ev cpu.RetireEvent) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10d  %08x  %-28s", ev.Cycle, ev.PC, ev.Inst.String())
	if ev.IsMem {
		fmt.Fprintf(&b, "  [va %08x]", ev.Addr)
	}
	if ev.Inst.WritesIntReg() || ev.Inst.WritesFPReg() {
		fmt.Fprintf(&b, "  = %#x", ev.Result)
	}
	return b.String()
}
