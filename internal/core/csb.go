// Package core implements the paper's contribution: the conditional store
// buffer (CSB, §3).
//
// The CSB is a software-controlled, uncached, combining store buffer. It
// holds one cache line of data together with the owning process ID, the
// line-aligned address of the most recent combining store, and a hit
// counter. Stores to uncached-combining address space merge into the
// buffer in any order; a conditional flush (the SPARC swap instruction
// addressed to combining space) atomically commits the accumulated stores
// as a single full-line burst transaction — but only if the process ID,
// line address and the expected store count all match, which is how
// conflicts with competing processes are detected without locks. On any
// mismatch the buffer is cleared and the flush reports failure; software
// recovers by re-issuing the store sequence (an optimistic, non-blocking
// scheme in the spirit of load-linked/store-conditional and transactional
// memory, §3.2).
package core

import (
	"fmt"

	"csbsim/internal/bus"
	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/journey"
)

// jrange tracks one issued line burst's journeys until its transaction
// completes (bursts complete in issue order).
type jrange struct {
	first uint64
	count int
}

// Config parameterizes the conditional store buffer.
type Config struct {
	// LineSize is the data register size in bytes; the CSB always issues
	// bursts of exactly this size (§3.2: "the CSB model in this study
	// always issues a full cache line").
	LineSize int
	// DoubleBuffered adds the second line buffer proposed at the end of
	// §3.2, letting a new store sequence begin while the previous flush
	// is still waiting for the system interface.
	DoubleBuffered bool
	// CheckAddress includes the line address in the conflict check
	// (§3.2: not strictly necessary, but detects conflicts between
	// threads sharing a process ID). Disabled only by ablation X5.
	CheckAddress bool
}

// DefaultConfig returns a single-entry 64-byte CSB with address checking.
func DefaultConfig() Config {
	return Config{LineSize: 64, CheckAddress: true}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.LineSize < 16 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("core: line size %d invalid", c.LineSize)
	}
	return nil
}

// Stats counts CSB activity.
type Stats struct {
	Stores         uint64 // combining stores accepted
	Conflicts      uint64 // stores that found a mismatching PID/line and reset the buffer
	FlushOK        uint64 // successful conditional flushes
	FlushFail      uint64 // failed conditional flushes
	Bursts         uint64 // line bursts handed to the system interface
	StallBusy      uint64 // stores/flushes rejected while a line awaited the bus
	PaddedBytes    uint64 // zero-padding added to partial lines
	BytesCommitted uint64
}

// CSB is the conditional store buffer. Like the hardware it models, it has
// no locks: the simulated machine is single-threaded and the *simulated*
// concurrency (competing processes) is what the PID/counter scheme
// arbitrates.
type CSB struct {
	cfg Config

	valid    bool
	lineAddr uint64
	pid      uint8
	hits     int64
	data     []byte
	mask     []bool

	// Lines accepted by a successful flush but not yet issued on the
	// bus: a ring of two slots with reusable line buffers (capacity 1,
	// or 2 when double-buffered).
	pending   [2]pendingLine
	pendHead  int
	pendCount int

	txnFree     []*bus.Txn // recycled burst transactions
	onBurstDone func(*bus.Txn)

	// Fault-injection hooks (SetFaultHooks), all optional:
	// storePressure refuses a combining store for one attempt (capacity
	// pressure; the retire stage retries), flushDelay stalls the
	// conditional-flush acknowledgement for extra attempts, and dropFlush
	// turns a would-succeed flush into a reported failure (a dropped
	// acknowledgement; software re-runs the store sequence).
	storePressure func() bool
	flushDelay    func() int
	dropFlush     func() bool
	delayLeft     int // remaining injected flush-ack delay, in attempts

	// Journey tracing (AttachTracer), optional. jFirst/jCount follow the
	// live store sequence in the data register; jq matches burst
	// completions back to flushed sequences.
	tracer *journey.Tracer
	jFirst uint64
	jCount int
	jq     [4]jrange
	jqHead int
	jqLen  int

	stats Stats
}

type pendingLine struct {
	addr uint64
	data []byte
	// journey range of the flushed sequence this line carries
	jFirst uint64
	jCount int
}

// New creates a conditional store buffer.
func New(cfg Config) (*CSB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &CSB{}
	c.onBurstDone = func(t *bus.Txn) {
		if c.tracer != nil {
			c.burstComplete()
		}
		c.txnFree = append(c.txnFree, t) //csb:pool — Done handler returning t to the free list
	}
	c.Reset(cfg)
	return c, nil
}

// Reset returns the CSB to the state New(cfg) gives: empty, no line
// pending, statistics cleared, no fault hook or tracer. A burst in flight
// is dropped. The line buffers and burst transactions keep their storage
// while the line size fits them. cfg must be valid (sim.Machine.Reset
// validates the whole machine's first).
func (c *CSB) Reset(cfg Config) {
	n := cfg.LineSize
	line := func(b []byte) []byte {
		if cap(b) < n {
			return make([]byte, n)
		}
		clear(b[:n])
		return b[:n]
	}
	mask := c.mask
	if cap(mask) < n {
		mask = make([]bool, n)
	}
	clear(mask[:n])
	*c = CSB{
		cfg: cfg, data: line(c.data), mask: mask[:n],
		pending: [2]pendingLine{{data: line(c.pending[0].data)}, {data: line(c.pending[1].data)}},
		txnFree: c.txnFree, onBurstDone: c.onBurstDone,
	}
}

// SetFaultHooks installs the fault-injection hooks (any may be nil).
// The hooks only ever force the stall/retry/failure paths that the real
// protocol already has; they can never corrupt buffered data, so
// architectural state stays recoverable by the §3.2 software retry loop.
func (c *CSB) SetFaultHooks(storePressure func() bool, flushDelay func() int, dropFlush func() bool) {
	c.storePressure = storePressure
	c.flushDelay = flushDelay
	c.dropFlush = dropFlush
}

// AttachTracer installs the journey tracer. Attach before running:
// sequences already buffered are not retroactively traced. Journey IDs
// are assigned in acceptance order and the CSB holds a single store
// sequence at a time, so the IDs of one sequence are contiguous and the
// later hops pass (first, count) ranges.
func (c *CSB) AttachTracer(t *journey.Tracer) { c.tracer = t }

// RegisterCounters registers the CSB's counters with the unified
// registry under prefix (e.g. "csb"), as read closures over the live
// stats — registration never perturbs simulation state.
func (c *CSB) RegisterCounters(prefix string, r *counters.Registry) {
	r.Counter(prefix+"/stores", func() uint64 { return c.stats.Stores })
	r.Counter(prefix+"/conflicts", func() uint64 { return c.stats.Conflicts })
	r.Counter(prefix+"/flush_ok", func() uint64 { return c.stats.FlushOK })
	r.Counter(prefix+"/flush_fail", func() uint64 { return c.stats.FlushFail })
	r.Counter(prefix+"/bursts", func() uint64 { return c.stats.Bursts })
	r.Counter(prefix+"/stall_busy", func() uint64 { return c.stats.StallBusy })
	r.Counter(prefix+"/padded_bytes", func() uint64 { return c.stats.PaddedBytes })
	r.Counter(prefix+"/bytes_committed", func() uint64 { return c.stats.BytesCommitted })
	r.Gauge(prefix+"/occupancy_bytes", func() uint64 { return uint64(c.Occupancy()) })
	r.Gauge(prefix+"/pending_lines", func() uint64 { return uint64(c.pendCount) })
}

// Config returns the CSB configuration.
func (c *CSB) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *CSB) Stats() Stats { return c.stats }

// HitCount exposes the current hit counter (for tests and tracing).
func (c *CSB) HitCount() int64 { return c.hits }

// Occupancy returns the number of valid bytes in the combining data
// register (registered as the csb/occupancy_bytes gauge).
func (c *CSB) Occupancy() int {
	if !c.valid {
		return 0
	}
	n := 0
	for _, m := range c.mask {
		if m {
			n++
		}
	}
	return n
}

// PendingLines returns the number of flushed lines still waiting for the
// system interface.
func (c *CSB) PendingLines() int { return c.pendCount }

// Busy reports whether the data register is unavailable because a flushed
// line has not yet been handed to the system interface. Combining stores
// and flushes stall while Busy (§3.2: "stores following a flush may stall
// until the entry has been sent to the system interface").
func (c *CSB) Busy() bool {
	capacity := 1
	if c.cfg.DoubleBuffered {
		capacity = 2
	}
	return c.pendCount >= capacity
}

// Drained reports whether no flushed line is still waiting for the bus.
func (c *CSB) Drained() bool { return c.pendCount == 0 }

// Quiet reports whether no fault hook draws on stores or flushes and no
// injected flush delay is running: a Busy CSB then refuses every store
// and flush the same way until a bus cycle issues its pending line. The
// machine skips quiet cycles (sim.Machine.Tick).
func (c *CSB) Quiet() bool {
	return c.storePressure == nil && c.flushDelay == nil && c.dropFlush == nil && c.delayLeft == 0
}

// CountStallBusy charges n stores or flushes refused while Busy, for n
// cycles the machine skips.
func (c *CSB) CountStallBusy(n uint64) { c.stats.StallBusy += n }

func (c *CSB) clear() {
	c.valid = false
	c.hits = 0
	clear(c.data)
	clear(c.mask)
}

// Store offers a combining store to the CSB. It returns false when the
// buffer is busy flushing (the retire stage retries next cycle).
//
// Matching semantics (§3.2): on a PID+line match the data is merged and
// the hit counter incremented; combining stores may arrive in any order
// since only the total count matters. On a mismatch the buffer is cleared,
// the counter reset to 1, and the new data stored — this is also how a
// competing process silently invalidates an interrupted sequence.
func (c *CSB) Store(pid uint8, addr uint64, size int, data []byte) bool {
	if len(data) != size {
		panic(fmt.Sprintf("core: store data %d != size %d", len(data), size))
	}
	if c.Busy() {
		c.stats.StallBusy++
		return false
	}
	if c.storePressure != nil && c.storePressure() {
		c.stats.StallBusy++ // injected capacity pressure: same retry path as Busy
		return false
	}
	line := addr &^ uint64(c.cfg.LineSize-1)
	if int(addr-line)+size > c.cfg.LineSize {
		panic(fmt.Sprintf("core: store at %#x size %d crosses line boundary", addr, size))
	}
	match := c.valid && c.pid == pid && (!c.cfg.CheckAddress || c.lineAddr == line)
	if !match {
		if c.valid {
			c.stats.Conflicts++
			if c.tracer != nil && c.jCount > 0 {
				c.tracer.CSBSequenceAborted(c.jFirst, c.jCount)
			}
		}
		if c.tracer != nil {
			c.jFirst = c.tracer.CSBStoreAccepted(addr, size, false)
			c.jCount = 1
		}
		c.clear()
		c.valid = true
		c.pid = pid
		c.lineAddr = line
		c.hits = 1
	} else {
		if c.tracer != nil {
			id := c.tracer.CSBStoreAccepted(addr, size, true)
			if c.jCount == 0 {
				c.jFirst = id
			}
			c.jCount++
		}
		c.hits++
		// Threads under one PID with address checking off may switch
		// lines mid-sequence; the most recent store's line wins, as in
		// the hardware (the address register tracks the most recent
		// combining store).
		c.lineAddr = line
	}
	off := int(addr - line)
	copy(c.data[off:], data)
	for k := 0; k < size; k++ {
		c.mask[off+k] = true
	}
	c.stats.Stores++
	return true
}

// ConditionalFlush attempts to commit the buffered sequence. expected is
// the hit count communicated by the flush instruction (the swap source
// value); old is the register's prior value, returned unchanged on success
// per §3.1. On success the line (zero-padded) is queued for the system
// interface and the buffer cleared. On failure the buffer is cleared, the
// counter reset to zero, nothing is issued, and 0 is returned.
//
// The second return value reports whether the flush may even be attempted:
// false means the CSB is busy and the instruction must retry (stall), not
// that the flush failed.
func (c *CSB) ConditionalFlush(pid uint8, addr uint64, expected int64, old uint64) (result uint64, ready bool) {
	if c.Busy() {
		c.stats.StallBusy++
		return 0, false
	}
	// Injected acknowledgement delay: the flush instruction stalls at the
	// head of the ROB for extra attempts before the CSB answers.
	if c.delayLeft > 0 {
		c.delayLeft--
		c.stats.StallBusy++
		return 0, false
	}
	if c.flushDelay != nil {
		if d := c.flushDelay(); d > 0 {
			c.delayLeft = d - 1 // this attempt is the first of d stalls
			c.stats.StallBusy++
			return 0, false
		}
	}
	line := addr &^ uint64(c.cfg.LineSize-1)
	ok := c.valid && c.pid == pid && c.hits == expected &&
		(!c.cfg.CheckAddress || c.lineAddr == line)
	if ok && c.dropFlush != nil && c.dropFlush() {
		// Injected dropped acknowledgement: the line is not committed and
		// software sees an ordinary flush failure, so the §3.2 retry loop
		// re-runs the whole store sequence.
		ok = false
	}
	if !ok {
		if c.tracer != nil && c.jCount > 0 {
			c.tracer.CSBSequenceAborted(c.jFirst, c.jCount)
			c.jFirst, c.jCount = 0, 0
		}
		c.clear()
		c.stats.FlushFail++
		return 0, true
	}
	// Unused words were already zeroed when the buffer was cleared at
	// the first combining store, "avoiding subtle security issues".
	for _, m := range c.mask {
		if !m {
			c.stats.PaddedBytes++
		}
	}
	slot := &c.pending[(c.pendHead+c.pendCount)%len(c.pending)]
	slot.addr = c.lineAddr
	copy(slot.data, c.data)
	if c.tracer != nil {
		c.tracer.CSBFlushCommitted(c.jFirst, c.jCount)
		slot.jFirst, slot.jCount = c.jFirst, c.jCount
		c.jFirst, c.jCount = 0, 0
	}
	c.pendCount++
	c.stats.BytesCommitted += uint64(c.cfg.LineSize)
	c.stats.FlushOK++
	c.clear()
	return old, true
}

// TickBus hands at most one pending line to the bus as a single ordered
// burst transaction. The machine calls this once per bus cycle.
//
//csb:hotpath
func (c *CSB) TickBus(b *bus.Bus) {
	// While the bus would refuse the ordered burst, skip building it:
	// TryIssue acts only once CanIssue holds.
	if c.pendCount == 0 || !b.CanIssue(true) {
		return
	}
	p := &c.pending[c.pendHead]
	// The transaction carries its own copy of the line: the pending slot
	// may be refilled by a new flush while the burst is still in flight.
	var txn *bus.Txn
	if n := len(c.txnFree); n > 0 {
		txn = c.txnFree[n-1]
		c.txnFree = c.txnFree[:n-1]
		txn.Start, txn.End = 0, 0
	} else {
		txn = &bus.Txn{Write: true, Ordered: true, IO: true, Done: c.onBurstDone} //csb:alloc-ok — cold start: the pool grows until steady state
	}
	txn.Addr, txn.Size = p.addr, len(p.data)
	txn.Data = append(txn.Data[:0], p.data...)
	if b.TryIssue(txn) {
		if c.tracer != nil {
			c.tracer.CSBBusGranted(p.jFirst, p.jCount)
			if c.jqLen < len(c.jq) {
				c.jq[(c.jqHead+c.jqLen)%len(c.jq)] = jrange{first: p.jFirst, count: p.jCount}
				c.jqLen++
			}
		}
		c.pendHead = (c.pendHead + 1) % len(c.pending)
		c.pendCount--
		c.stats.Bursts++
	} else {
		c.txnFree = append(c.txnFree, txn)
	}
}

// burstComplete completes the journeys of the oldest in-flight line
// (bursts complete in issue order on the single-channel bus).
//
//csb:hotpath
func (c *CSB) burstComplete() {
	if c.jqLen == 0 {
		return // line issued before the tracer was attached
	}
	r := &c.jq[c.jqHead]
	c.tracer.CSBLineDone(r.first, r.count)
	c.jqHead = (c.jqHead + 1) % len(c.jq)
	c.jqLen--
}
