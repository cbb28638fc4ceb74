// Package uncbuf models the processor's uncached buffer (paper §4.1): a
// FIFO queue between the retire stage and the system interface that holds
// uncached loads and stores. Optionally it combines stores into block-sized
// entries, covering the spectrum of real designs from the PowerPC 620 (two
// stores) to the R10000's uncached-accelerated buffer (a full cache line):
// the block size is configurable from 16 bytes to a cache line, or
// combining can be disabled entirely.
//
// Combining is opportunistic and software-transparent: a store coalesces
// into the youngest entry when it falls into the same block and does not
// bypass an earlier load or barrier; head entries are popped as soon as the
// bus can accept them, so combining succeeds only while the buffer is
// backed up — exactly the latency/utilization trade-off §2 describes.
package uncbuf

import (
	"fmt"

	"csbsim/internal/bus"
	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/journey"
)

// jrange tracks one departed entry's journeys until its transactions
// complete. The bus completes transactions in issue order, so a FIFO
// ring of these matches completions to entries.
type jrange struct {
	first uint64
	count int
	left  int // transactions still in flight
}

// Config parameterizes the uncached buffer.
type Config struct {
	// Entries is the queue depth (default 8).
	Entries int
	// BlockSize is the combining block in bytes; 0 disables combining
	// (every store issues as its own single-beat transaction).
	BlockSize int
	// MaxBurst caps a single bus transaction (the cache line size).
	MaxBurst int
	// Sequential restricts combining to strictly sequential addresses,
	// modeling the R10000 uncached-accelerated buffer (ablation X4).
	Sequential bool
}

// DefaultConfig returns an 8-entry non-combining buffer with 64-byte
// maximum bursts.
func DefaultConfig() Config {
	return Config{Entries: 8, BlockSize: 0, MaxBurst: 64}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("uncbuf: entries must be positive")
	}
	if c.BlockSize != 0 && (c.BlockSize < 8 || c.BlockSize&(c.BlockSize-1) != 0) {
		return fmt.Errorf("uncbuf: block size %d invalid", c.BlockSize)
	}
	if c.MaxBurst <= 0 || c.MaxBurst&(c.MaxBurst-1) != 0 {
		return fmt.Errorf("uncbuf: max burst %d invalid", c.MaxBurst)
	}
	return nil
}

// Stats counts buffer activity.
type Stats struct {
	Stores       uint64 // stores accepted
	Loads        uint64 // loads accepted
	Coalesced    uint64 // stores merged into an existing entry
	Entries      uint64 // entries created
	Transactions uint64 // bus transactions issued
	StallFull    uint64 // cycles a store could not be accepted
}

type entryKind uint8

const (
	entryStore entryKind = iota
	entryLoad
)

type entry struct {
	kind      entryKind
	blockAddr uint64
	data      []byte
	mask      []bool
	// seqNext is the only offset a store may merge at in Sequential
	// (R10000-style) mode: exactly one past the previous store.
	seqNext int
	// load fields
	loadAddr uint64
	loadSize int
	done     func([]byte)
	// journey IDs of the stores merged into this entry (contiguous).
	jFirst uint64
	jCount int
}

// Buffer is the uncached buffer. It is not safe for concurrent use; the
// simulator is single-threaded by design.
//
// The queue is a fixed ring of cfg.Entries slots whose data/mask buffers
// are reused across entries, the send stage copies the head entry into
// its own buffer, and completed store transactions return to a free list
// — so the steady-state store path performs no heap allocations.
type Buffer struct {
	cfg   Config
	queue []entry // ring buffer, capacity cfg.Entries
	qhead int
	qlen  int
	// dataBack and maskBack are the arrays the entries' buffers are cut
	// from.
	dataBack []byte
	maskBack []bool
	// chunks of the popped head entry awaiting bus issue
	sending    []bus.Chunk
	sendChunks []bus.Chunk // backing storage reused by sending
	sendData   []byte      // send-stage copy of the head entry's bytes
	sendBase   uint64
	inflight   int // bus transactions issued but not yet complete

	txnFree     []*bus.Txn // recycled store transactions
	onStoreDone func(*bus.Txn)
	// loadTxn is the one read transaction: a load issues only once every
	// older transaction completed, so at most one is ever in flight, and
	// loadDone is its requester's callback. The read's Data is the
	// target's fresh result, so the Txn stays out of the store pool, whose
	// payload buffers it would otherwise replace.
	loadTxn  *bus.Txn
	loadDone func([]byte)

	// Journey tracing (AttachTracer), all optional. The send stage
	// remembers the journey range of the entry it carries; jq matches
	// store-transaction completions back to departed entries.
	tracer      *journey.Tracer
	sendJFirst  uint64
	sendJCount  int
	sendGranted bool
	jq          []jrange
	jqHead      int
	jqLen       int

	// pressure, when set, makes an accept spuriously fail (fault
	// injection): the retire stage sees an ordinary buffer-full stall and
	// retries, exercising the same path as genuine capacity exhaustion.
	pressure func() bool

	stats Stats
}

// SetFaultHook installs (or, with nil, removes) the capacity-pressure
// fault hook consulted on every AddStore/AddLoad attempt.
func (u *Buffer) SetFaultHook(pressure func() bool) {
	u.pressure = pressure
}

// AttachTracer installs the journey tracer. Attach before running:
// entries already in flight are not retroactively traced. Journey IDs are
// assigned in acceptance order and stores only ever coalesce into the
// youngest entry, so the IDs inside one entry are contiguous and the
// later hops pass (first, count) ranges.
func (u *Buffer) AttachTracer(t *journey.Tracer) {
	u.tracer = t
	if u.jq == nil {
		// At most one departed entry awaits completions while the next
		// occupies the send stage; a few spare slots cost nothing.
		u.jq = make([]jrange, u.cfg.Entries+2)
	}
}

// RegisterCounters registers the buffer's counters with the unified
// registry under prefix (e.g. "ub"), as read closures over the live
// stats — registration never perturbs simulation state.
func (u *Buffer) RegisterCounters(prefix string, r *counters.Registry) {
	r.Counter(prefix+"/stores", func() uint64 { return u.stats.Stores })
	r.Counter(prefix+"/loads", func() uint64 { return u.stats.Loads })
	r.Counter(prefix+"/coalesced", func() uint64 { return u.stats.Coalesced })
	r.Counter(prefix+"/entries", func() uint64 { return u.stats.Entries })
	r.Counter(prefix+"/transactions", func() uint64 { return u.stats.Transactions })
	r.Counter(prefix+"/stall_full", func() uint64 { return u.stats.StallFull })
	r.Gauge(prefix+"/depth", func() uint64 { return uint64(u.qlen) })
}

// New creates an uncached buffer.
func New(cfg Config) (*Buffer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	u := &Buffer{}
	u.onStoreDone = func(t *bus.Txn) {
		u.inflight--
		if u.tracer != nil {
			u.storeTxnComplete()
		}
		u.txnFree = append(u.txnFree, t) //csb:pool — Done handler returning t to the free list
	}
	u.loadTxn = &bus.Txn{Ordered: true, IO: true, Done: func(t *bus.Txn) {
		u.inflight--
		done := u.loadDone
		u.loadDone = nil
		if done != nil {
			done(t.Data)
		}
	}}
	u.Reset(cfg)
	return u, nil
}

// Reset returns the buffer to the state New(cfg) gives: empty, nothing
// in flight, statistics cleared, no fault hook or tracer. Entries, store
// transactions and the send stage keep their storage; a queue that needs
// larger entry buffers than the buffer has held (a larger BlockSize or
// more Entries) gets new ones. cfg must be valid (sim.Machine.Reset
// validates the whole machine's first).
func (u *Buffer) Reset(cfg Config) {
	bufSize := max(cfg.BlockSize, 8) // plain entries hold one ≤8-byte store
	queue, data, mask := u.queue, u.dataBack, u.maskBack
	if cap(queue) < cfg.Entries {
		queue = make([]entry, cfg.Entries)
	}
	queue = queue[:cfg.Entries]
	if n := cfg.Entries * bufSize; cap(data) < n {
		data, mask = make([]byte, n), make([]bool, n)
	}
	// Every entry's buffers are cut from the two arrays, capacity capped
	// so that no entry's appends run into the next.
	for i := range queue {
		lo, hi := i*bufSize, (i+1)*bufSize
		queue[i] = entry{data: data[lo:lo:hi], mask: mask[lo:lo:hi]}
	}
	sendData := u.sendData
	if cap(sendData) < bufSize {
		sendData = make([]byte, bufSize)
	}
	*u = Buffer{
		cfg: cfg, queue: queue, dataBack: data, maskBack: mask,
		sendChunks: u.sendChunks[:0], sendData: sendData[:bufSize],
		txnFree: u.txnFree, onStoreDone: u.onStoreDone, loadTxn: u.loadTxn,
	}
}

// at returns the i-th queued entry (0 = head).
func (u *Buffer) at(i int) *entry {
	return &u.queue[(u.qhead+i)%len(u.queue)]
}

// pushSlot returns the next tail slot with its buffers reset, ready to be
// filled in place.
func (u *Buffer) pushSlot() *entry {
	e := u.at(u.qlen)
	u.qlen++
	*e = entry{data: e.data[:0], mask: e.mask[:0]}
	return e
}

// popHead removes the head entry. Its slot (and buffers) will be reused,
// so callers must copy out anything they need first.
func (u *Buffer) popHead() {
	u.qhead = (u.qhead + 1) % len(u.queue)
	u.qlen--
}

// Config returns the buffer configuration.
func (u *Buffer) Config() Config { return u.cfg }

// Stats returns a snapshot of the counters.
func (u *Buffer) Stats() Stats { return u.stats }

// Len returns the number of queued entries (excluding any entry currently
// being transferred).
func (u *Buffer) Len() int { return u.qlen }

// InFlight returns the number of issued bus transactions not yet complete
// (diagnostic dumps).
func (u *Buffer) InFlight() int { return u.inflight }

// SendingChunks returns the number of chunks of the popped head entry
// still awaiting bus issue (diagnostic dumps).
func (u *Buffer) SendingChunks() int { return len(u.sending) }

// Empty reports whether the buffer holds nothing and no issued transaction
// is still on the bus. MEMBAR retires only when this is true.
func (u *Buffer) Empty() bool {
	return u.qlen == 0 && len(u.sending) == 0 && u.inflight == 0
}

// HasWork reports whether a bus-cycle tick has anything to do: entries
// queued or chunks of a popped entry still awaiting issue. Machine.Tick
// skips the TickBus call otherwise.
func (u *Buffer) HasWork() bool {
	return u.qlen != 0 || len(u.sending) != 0
}

// Full reports whether the queue has no free entry: a load, or a store
// that cannot coalesce, is refused.
func (u *Buffer) Full() bool { return u.qlen >= u.cfg.Entries }

// Quiet reports whether TickCPU would do nothing and no fault hook draws
// on accepts: the send stage is busy, the queue is empty, or its head is
// a load (which leaves only on a bus cycle). The machine skips quiet
// cycles (sim.Machine.Tick).
func (u *Buffer) Quiet() bool {
	return u.pressure == nil && (len(u.sending) != 0 || u.qlen == 0 || u.queue[u.qhead].kind != entryStore)
}

// CountStallFull charges n refused accepts, as AddStore or AddLoad does
// on a full queue, for n cycles the machine skips.
func (u *Buffer) CountStallFull(n uint64) { u.stats.StallFull += n }

// CanAcceptStore reports whether a store would be accepted this cycle.
func (u *Buffer) CanAcceptStore(addr uint64, size int) bool {
	if u.mergeTarget(addr, size) != nil {
		return true
	}
	return u.qlen < u.cfg.Entries
}

// mergeTarget returns the queue entry the store at addr can coalesce
// into, or nil. Only the youngest entry is eligible, which guarantees
// stores never bypass older loads, barriers or stores to other blocks.
func (u *Buffer) mergeTarget(addr uint64, size int) *entry {
	if u.cfg.BlockSize == 0 || u.qlen == 0 {
		return nil
	}
	e := u.at(u.qlen - 1)
	if e.kind != entryStore {
		return nil
	}
	block := addr &^ uint64(u.cfg.BlockSize-1)
	if e.blockAddr != block {
		return nil
	}
	off := int(addr - block)
	if off+size > u.cfg.BlockSize {
		return nil
	}
	if u.cfg.Sequential && off != e.seqNext {
		// R10000-style: the store must be to the address immediately
		// following the previous one.
		return nil
	}
	return e
}

// AddStore offers an uncached store to the buffer. The bytes are copied;
// the caller may reuse data. It returns false when the buffer is full
// (the retire stage must stall and retry).
func (u *Buffer) AddStore(addr uint64, size int, data []byte) bool {
	if len(data) != size {
		panic(fmt.Sprintf("uncbuf: store data %d != size %d", len(data), size))
	}
	if u.pressure != nil && u.pressure() {
		u.stats.StallFull++ // injected pressure: same retry path as a full queue
		return false
	}
	if e := u.mergeTarget(addr, size); e != nil {
		off := int(addr - e.blockAddr)
		copy(e.data[off:], data)
		for k := 0; k < size; k++ {
			e.mask[off+k] = true
		}
		e.seqNext = off + size
		u.stats.Stores++
		u.stats.Coalesced++
		if u.tracer != nil {
			id := u.tracer.UBStoreAccepted(addr, size, true)
			if e.jCount == 0 {
				e.jFirst = id
			}
			e.jCount++
		}
		return true
	}
	if u.qlen >= u.cfg.Entries {
		u.stats.StallFull++
		return false
	}
	e := u.pushSlot()
	e.kind = entryStore
	if u.cfg.BlockSize == 0 {
		// Non-combining: entry is exactly the store.
		e.blockAddr = addr
		e.data = append(e.data, data...)
		e.mask = e.mask[:size]
		for k := range e.mask {
			e.mask[k] = true
		}
	} else {
		block := addr &^ uint64(u.cfg.BlockSize-1)
		e.blockAddr = block
		e.data = e.data[:u.cfg.BlockSize]
		e.mask = e.mask[:u.cfg.BlockSize]
		for k := range e.data {
			e.data[k] = 0
		}
		for k := range e.mask {
			e.mask[k] = false
		}
		off := int(addr - block)
		copy(e.data[off:], data)
		for k := 0; k < size; k++ {
			e.mask[off+k] = true
		}
		e.seqNext = off + size
	}
	u.stats.Stores++
	u.stats.Entries++
	if u.tracer != nil {
		e.jFirst = u.tracer.UBStoreAccepted(addr, size, false)
		e.jCount = 1
	}
	return true
}

// AddLoad queues an uncached load. done receives the data when the bus
// transaction completes. It returns false when the buffer is full.
func (u *Buffer) AddLoad(addr uint64, size int, done func([]byte)) bool {
	if u.pressure != nil && u.pressure() {
		u.stats.StallFull++ // injected pressure: same retry path as a full queue
		return false
	}
	if u.qlen >= u.cfg.Entries {
		u.stats.StallFull++
		return false
	}
	e := u.pushSlot()
	e.kind = entryLoad
	e.loadAddr = addr
	e.loadSize = size
	e.done = done
	u.stats.Loads++
	u.stats.Entries++
	return true
}

// TickCPU pops the head store entry into the system-interface send stage
// as soon as it is free. The machine calls this every CPU cycle, *before*
// the core retires new stores: the send stage drains at core rate, so with
// an idle bus the first store of a stream always departs alone and only
// the backlog behind it can combine (the warm-up effect of §4.3.1).
//
//csb:hotpath
func (u *Buffer) TickCPU() {
	if len(u.sending) != 0 || u.qlen == 0 {
		return
	}
	head := u.at(0)
	if head.kind != entryStore {
		return // loads issue directly from the queue on bus cycles
	}
	// Copy the entry into the send stage before freeing its slot: the
	// ring reuses entry buffers as soon as the head is popped.
	u.sendBase = head.blockAddr
	u.sendData = u.sendData[:len(head.data)]
	copy(u.sendData, head.data)
	u.sending = bus.AppendAlignedChunks(u.sendChunks[:0], head.blockAddr, head.mask, u.cfg.MaxBurst)
	u.sendChunks = u.sending
	if u.tracer != nil {
		u.tracer.UBEntryDeparted(head.jFirst, head.jCount)
		u.sendJFirst, u.sendJCount = head.jFirst, head.jCount
		u.sendGranted = false
		if u.jqLen < len(u.jq) {
			u.jq[(u.jqHead+u.jqLen)%len(u.jq)] = jrange{
				first: head.jFirst, count: head.jCount, left: len(u.sending)}
			u.jqLen++
		}
	}
	u.popHead()
}

// TickBus gives the buffer a chance to issue one transaction on the bus.
// The machine calls this once per bus cycle, after bus.Tick.
//
//csb:hotpath
func (u *Buffer) TickBus(b *bus.Bus) {
	u.TickCPU() // the send stage also refills on bus cycles
	// Loads and stores are both ordered transactions. While the bus would
	// refuse one, skip building it: TryIssue acts only once CanIssue holds.
	if !b.CanIssue(true) {
		return
	}
	if len(u.sending) == 0 && u.qlen > 0 {
		head := u.at(0)
		switch head.kind {
		case entryLoad:
			// Strong ordering: a load issues only after all older
			// transactions completed.
			if u.inflight > 0 {
				return
			}
			txn := u.loadTxn
			txn.Addr, txn.Size = head.loadAddr, head.loadSize
			txn.Start, txn.End = 0, 0
			if b.TryIssue(txn) {
				u.loadDone = head.done
				head.done = nil
				u.popHead()
				u.inflight++
				u.stats.Transactions++
			}
			return
		}
	}
	if len(u.sending) == 0 {
		return
	}
	c := u.sending[0]
	txn := u.newStoreTxn()
	txn.Addr, txn.Size = c.Addr, c.Size
	txn.Data = append(txn.Data[:0], u.sendData[c.Addr-u.sendBase:][:c.Size]...)
	if b.TryIssue(txn) {
		u.inflight++
		u.sending = u.sending[1:]
		u.stats.Transactions++
		if u.tracer != nil && !u.sendGranted {
			u.sendGranted = true
			u.tracer.UBBusGranted(u.sendJFirst, u.sendJCount)
		}
	} else {
		u.txnFree = append(u.txnFree, txn)
	}
}

// storeTxnComplete matches a completed store transaction to the oldest
// departed entry still in flight and, on its last one, completes the
// entry's journeys.
//
//csb:hotpath
func (u *Buffer) storeTxnComplete() {
	if u.jqLen == 0 {
		return // entry departed before the tracer was attached
	}
	r := &u.jq[u.jqHead]
	r.left--
	if r.left == 0 {
		u.tracer.UBEntryDone(r.first, r.count)
		u.jqHead = (u.jqHead + 1) % len(u.jq)
		u.jqLen--
	}
}

// newStoreTxn returns a write transaction from the free list (or a fresh
// one). Done is pre-wired to recycle the transaction, so steady-state
// store traffic reuses a handful of Txns instead of allocating one per
// chunk.
//
//csb:hotpath
func (u *Buffer) newStoreTxn() *bus.Txn {
	if n := len(u.txnFree); n > 0 {
		t := u.txnFree[n-1]
		u.txnFree = u.txnFree[:n-1]
		t.Start, t.End = 0, 0
		return t
	}
	return &bus.Txn{Write: true, Ordered: true, IO: true, Done: u.onStoreDone} //csb:alloc-ok — cold start: the pool grows until steady state
}
