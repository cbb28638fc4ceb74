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

// Ring keeps the most recent retire events in a fixed-capacity buffer.
// Push is allocation-free, so a ring can ride the retire hook of a
// zero-alloc tick loop (the machine watchdog's does).
type Ring struct {
	buf  []cpu.RetireEvent
	next int
	full bool
}

// NewRing creates a ring holding the last capacity events (at least 1).
func NewRing(capacity int) *Ring {
	return &Ring{buf: make([]cpu.RetireEvent, max(capacity, 1))}
}

// Push records one event, evicting the oldest at capacity (usable
// directly as a retire observer).
//
//csb:hotpath
func (r *Ring) Push(ev cpu.RetireEvent) {
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Len returns the number of events held (0 for a nil ring).
func (r *Ring) Len() int {
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
func (r *Ring) Last(n int) []cpu.RetireEvent {
	if r == nil {
		return nil
	}
	k := min(n, r.Len())
	out := make([]cpu.RetireEvent, k)
	start := r.next - k
	if start < 0 {
		start += len(r.buf)
	}
	copied := copy(out, r.buf[start:])
	copy(out[copied:], r.buf)
	return out
}

// Recorder collects retire events. It can stream them to a writer, keep
// the last N in a ring, or both. The zero value keeps nothing; use New.
type Recorder struct {
	w     io.Writer
	ring  *Ring
	count uint64
	// Filter, if set, drops events for which it returns false.
	Filter func(cpu.RetireEvent) bool
}

// New creates a recorder that streams formatted events to w (may be nil)
// and keeps the most recent ringSize events (0 keeps none).
func New(w io.Writer, ringSize int) *Recorder {
	r := &Recorder{w: w}
	if ringSize > 0 {
		r.ring = NewRing(ringSize)
	}
	return r
}

// Attach hooks the recorder to a CPU. It registers alongside any other
// retire observers; recorders and exporters coexist.
func (r *Recorder) Attach(c *cpu.CPU) {
	c.AttachRetire(r.Record)
}

// Record consumes one event (usable directly as a retire observer).
func (r *Recorder) Record(ev cpu.RetireEvent) {
	if r.Filter != nil && !r.Filter(ev) {
		return
	}
	r.count++
	if r.ring != nil {
		r.ring.Push(ev)
	}
	if r.w != nil {
		fmt.Fprintln(r.w, FormatEvent(ev))
	}
}

// Count returns the number of recorded events.
func (r *Recorder) Count() uint64 { return r.count }

// Last returns up to n most recent events, oldest first.
func (r *Recorder) Last(n int) []cpu.RetireEvent { return r.ring.Last(n) }

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

// Dump writes the ring buffer contents to w, oldest first.
func (r *Recorder) Dump(w io.Writer) {
	for _, ev := range r.Last(r.ring.Len()) {
		fmt.Fprintln(w, FormatEvent(ev))
	}
}
