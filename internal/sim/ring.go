package sim

// ring keeps the most recent events in a fixed-capacity buffer. push is
// allocation-free, so a ring can ride the retire hook or the bus
// observer of a zero-alloc tick loop (the machine's retired-instruction
// and bus-transaction rings do).
type ring[T any] struct {
	buf  []T
	next int
	full bool
}

// newRing creates a ring holding the last capacity events (at least 1).
func newRing[T any](capacity int) *ring[T] {
	return &ring[T]{buf: make([]T, max(capacity, 1))}
}

// push records one event, evicting the oldest at capacity.
//
//csb:hotpath
func (r *ring[T]) push(ev T) {
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// capacity returns the number of events the ring holds once full.
func (r *ring[T]) capacity() int { return len(r.buf) }

// size returns the number of events held (0 for a nil ring).
func (r *ring[T]) size() int {
	if r == nil {
		return 0
	}
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// last returns a copy of up to n most recent events, oldest first (nil
// for a nil ring).
func (r *ring[T]) last(n int) []T {
	if r == nil {
		return nil
	}
	k := min(n, r.size())
	out := make([]T, k)
	start := r.next - k
	if start < 0 {
		start += len(r.buf)
	}
	copied := copy(out, r.buf[start:])
	copy(out[copied:], r.buf)
	return out
}
