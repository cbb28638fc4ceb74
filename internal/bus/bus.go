// Package bus implements the two system-bus models evaluated in the paper
// (§4.1): a multiplexed address/data bus and a split address/data bus. Both
// are fully pipelined with arbitration overlapped with the current
// transaction, support naturally-aligned power-of-two transfer sizes from 1
// byte to a full cache line, and can be configured with a per-transaction
// turnaround cycle and a selective-flow-control acknowledgment delay that
// spaces strongly-ordered uncached transactions.
//
// All timing here is in *bus cycles*; the machine clocks the bus once every
// CPU-to-bus frequency-ratio ticks.
package bus

import (
	"fmt"
	"math/bits"

	"csbsim/internal/mem"
	"csbsim/internal/obs/counters"
)

// Model selects the bus organization.
type Model uint8

const (
	// Multiplexed buses share one set of wires for addresses and data: a
	// transaction costs one address cycle plus its data beats.
	Multiplexed Model = iota
	// Split buses have a dedicated address path: a transaction occupies
	// the data path only for its data beats.
	Split
)

func (m Model) String() string {
	if m == Split {
		return "split"
	}
	return "multiplexed"
}

// Config parameterizes a bus instance. The zero value is not useful; use
// DefaultConfig as a starting point.
type Config struct {
	Model Model
	// WidthBytes is the data path width (8 for the paper's multiplexed
	// experiments, 16 or 32 for the split ones).
	WidthBytes int
	// Turnaround inserts idle cycles after every transaction, modeling
	// buses that need a dead cycle between masters (fig 3g, 4c).
	Turnaround int
	// AckDelay is the selective-flow-control minimum spacing, in bus
	// cycles, between the *starts* of consecutive strongly-ordered
	// transactions (fig 3h-i, 4d-e). Zero disables it.
	AckDelay int
	// ReadWait is the target's access latency for cacheable memory
	// reads, in bus cycles between the address cycle and the first data
	// beat.
	ReadWait int
	// IOReadWait is the equivalent latency for uncached/device reads.
	IOReadWait int
}

// DefaultConfig mirrors the paper's base configuration: 8-byte multiplexed
// bus, no turnaround, no ack delay.
func DefaultConfig() Config {
	return Config{Model: Multiplexed, WidthBytes: 8, ReadWait: 8, IOReadWait: 4}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.WidthBytes <= 0 || c.WidthBytes&(c.WidthBytes-1) != 0 {
		return fmt.Errorf("bus: width %d not a power of two", c.WidthBytes)
	}
	if c.Turnaround < 0 || c.AckDelay < 0 || c.ReadWait < 0 || c.IOReadWait < 0 {
		return fmt.Errorf("bus: negative timing parameter")
	}
	return nil
}

// Txn is one bus transaction. Transactions must be naturally aligned
// power-of-two sizes (the alignment restriction that limits combining,
// §4.1 last paragraph).
type Txn struct {
	Addr  uint64
	Size  int
	Write bool
	// Data holds write payload (len == Size) or receives read data, in
	// place when its capacity allows: an agent that reuses its Txn
	// reuses the buffer too.
	Data []byte
	// Ordered marks strongly-ordered uncached transactions subject to
	// the AckDelay spacing rule.
	Ordered bool
	// IO selects the device read latency instead of memory latency.
	IO bool
	// Silent transactions occupy the bus but move no data. The tag-only
	// cache model uses them for writebacks, whose payload is already in
	// RAM.
	Silent bool
	// Done, if non-nil, runs when the transaction completes. Reads see
	// their Data filled in. The issuing agent may recycle the Txn after
	// Done returns, so callbacks (and bus observers) must not retain it.
	Done func(*Txn)

	// Start and End are the first and last occupied bus cycles, filled
	// in by the bus.
	Start, End uint64
}

// Stats aggregates bus activity.
type Stats struct {
	Cycles       uint64
	BusyCycles   uint64
	Transactions uint64
	Bursts       uint64 // transactions larger than one data beat
	Bytes        uint64
	Reads        uint64
	Writes       uint64
	// Nacks counts transactions refused by the injected-fault hook (the
	// agent re-arbitrates, exactly as after losing arbitration).
	Nacks uint64
	// BySize histograms transaction sizes (bytes → count).
	BySize map[int]uint64
}

// Bus is a cycle-accurate single-channel system bus. Multiple agents (the
// uncached buffer, the CSB path, the cache miss path, DMA engines) share it
// by calling TryIssue; whoever asks first in a cycle wins, which models the
// overlapped arbitration of the paper's buses.
type Bus struct {
	cfg    Config
	router *mem.Router
	cycle  uint64

	cur        *Txn   // in-flight transaction, nil when idle
	freeAt     uint64 // first cycle a new transaction may start (occupancy+turnaround)
	ackFreeAt  uint64 // first cycle an Ordered transaction may start
	everIssued bool

	// observers run on every completed transaction (the benchmark
	// harness measures spans, the machine's pipeline tail keeps the
	// last ones).
	// Register with AttachObserver; multiple observers coexist.
	observers []func(*Txn)

	// nackHook, when set, may refuse an otherwise-accepted transaction
	// (fault injection): TryIssue returns false and the agent retries on
	// a later bus cycle, the same recovery path as losing arbitration.
	nackHook func(*Txn) bool

	// bySize counts completed transactions by log2 of their size; Stats
	// folds it into Stats.BySize, which stats leaves nil.
	bySize [64]uint64
	stats  Stats
}

// AttachObserver registers fn to run on every completed transaction, in
// attachment order, after the transaction's own Done callback target data
// is filled in but before Done itself runs.
//
// The *Txn (and its Data slice) is only valid for the duration of the
// call: agents recycle completed transactions, so observers must copy
// anything they want to keep.
func (b *Bus) AttachObserver(fn func(*Txn)) {
	b.observers = append(b.observers, fn)
}

// SetNackHook installs (or, with nil, removes) the fault-injection hook
// consulted after all legitimate issue checks pass. The hook must not
// retain the *Txn: the issuing agent may recycle it.
func (b *Bus) SetNackHook(fn func(*Txn) bool) {
	b.nackHook = fn
}

// New creates a bus over the given physical-address router. The router may
// be nil for pure timing tests; then reads return zero data.
func New(cfg Config, rt *mem.Router) (*Bus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Bus{cfg: cfg, router: rt}, nil
}

// Cycle returns the current bus cycle number.
func (b *Bus) Cycle() uint64 { return b.cycle }

// Config returns the bus configuration.
func (b *Bus) Config() Config { return b.cfg }

// Stats returns a snapshot of the accumulated statistics.
func (b *Bus) Stats() Stats {
	s := b.stats
	s.Cycles = b.cycle
	s.BySize = make(map[int]uint64)
	for lg, n := range b.bySize {
		if n != 0 {
			s.BySize[1<<lg] = n
		}
	}
	return s
}

// RegisterCounters registers the bus's counters with the unified
// registry under prefix (e.g. "bus"), as read closures over the live
// stats — registration never perturbs simulation state.
func (b *Bus) RegisterCounters(prefix string, r *counters.Registry) {
	r.Counter(prefix+"/cycles", func() uint64 { return b.cycle })
	r.Counter(prefix+"/busy_cycles", func() uint64 { return b.stats.BusyCycles })
	r.Counter(prefix+"/transactions", func() uint64 { return b.stats.Transactions })
	r.Counter(prefix+"/bursts", func() uint64 { return b.stats.Bursts })
	r.Counter(prefix+"/bytes", func() uint64 { return b.stats.Bytes })
	r.Counter(prefix+"/reads", func() uint64 { return b.stats.Reads })
	r.Counter(prefix+"/writes", func() uint64 { return b.stats.Writes })
	r.Counter(prefix+"/nacks", func() uint64 { return b.stats.Nacks })
}

// Idle reports whether no transaction is in flight.
func (b *Bus) Idle() bool { return b.cur == nil }

// Duration returns the number of bus cycles a transaction of the given
// size and direction occupies.
func (b *Bus) Duration(size int, write, io bool) int {
	beats := (size + b.cfg.WidthBytes - 1) / b.cfg.WidthBytes
	if beats == 0 {
		beats = 1
	}
	d := beats
	if b.cfg.Model == Multiplexed {
		d++ // address cycle
	}
	if !write {
		if io {
			d += b.cfg.IOReadWait
		} else {
			d += b.cfg.ReadWait
		}
	}
	return d
}

// CanIssue reports whether a transaction could start at the current cycle.
func (b *Bus) CanIssue(ordered bool) bool {
	if b.cur != nil {
		return false
	}
	if b.everIssued && b.cycle < b.freeAt {
		return false
	}
	if ordered && b.cycle < b.ackFreeAt {
		return false
	}
	return true
}

// QuietTicks returns how many of the following Ticks leave the bus
// unchanged but for its cycle and busy count: those before the one that
// completes the in-flight transaction or, with the bus idle and an agent
// waiting (waiting) to issue an ordered transaction, before the first
// after which CanIssue(true) holds. An idle bus nobody waits for is quiet
// indefinitely.
//
//csb:hotpath
func (b *Bus) QuietTicks(waiting bool) uint64 {
	if t := b.cur; t != nil {
		return t.End - b.cycle
	}
	if !waiting {
		return ^uint64(0)
	}
	free := b.ackFreeAt
	if b.everIssued {
		free = max(free, b.freeAt)
	}
	if free <= b.cycle+1 {
		return 0
	}
	return free - b.cycle - 1
}

// Skip advances the bus through n quiet Ticks in O(1): its cycle and,
// with a transaction in flight, its busy count. The caller keeps n within
// QuietTicks, so no transaction completes.
//
//csb:hotpath
func (b *Bus) Skip(n uint64) {
	if b.cur != nil {
		b.stats.BusyCycles += n
	}
	b.cycle += n
}

// TryIssue attempts to start t at the current cycle. It returns false when
// the bus is occupied or a spacing rule blocks the start.
func (b *Bus) TryIssue(t *Txn) bool {
	if err := b.checkTxn(t); err != nil {
		panic(err) // programming error in a bus agent, not a simulation outcome
	}
	if !b.CanIssue(t.Ordered) {
		return false
	}
	if b.nackHook != nil && b.nackHook(t) {
		b.stats.Nacks++
		return false
	}
	d := uint64(b.Duration(t.Size, t.Write, t.IO))
	t.Start = b.cycle
	t.End = b.cycle + d - 1
	b.cur = t //csb:pool — the bus owns t until complete() hands it back via Done
	b.freeAt = t.End + 1 + uint64(b.cfg.Turnaround)
	if t.Ordered && b.cfg.AckDelay > 0 {
		ack := t.Start + uint64(b.cfg.AckDelay)
		if ack > b.ackFreeAt {
			b.ackFreeAt = ack
		}
	}
	b.everIssued = true
	return true
}

func (b *Bus) checkTxn(t *Txn) error {
	if t.Size <= 0 || t.Size&(t.Size-1) != 0 {
		return fmt.Errorf("bus: transaction size %d not a power of two", t.Size)
	}
	if t.Addr%uint64(t.Size) != 0 {
		return fmt.Errorf("bus: transaction at %#x size %d not naturally aligned", t.Addr, t.Size)
	}
	if t.Write && len(t.Data) != t.Size {
		return fmt.Errorf("bus: write data length %d != size %d", len(t.Data), t.Size)
	}
	return nil
}

// Tick advances the bus by one cycle, completing the in-flight transaction
// when its last beat has passed.
//
//csb:hotpath
func (b *Bus) Tick() {
	if b.cur != nil {
		b.stats.BusyCycles++
	}
	b.cycle++
	if t := b.cur; t != nil && b.cycle > t.End {
		b.cur = nil
		b.complete(t)
	}
}

//csb:hotpath
func (b *Bus) complete(t *Txn) {
	b.stats.Transactions++
	b.stats.Bytes += uint64(t.Size)
	b.bySize[bits.TrailingZeros(uint(t.Size))]++
	if t.Size > b.cfg.WidthBytes {
		b.stats.Bursts++
	}
	if t.Write {
		b.stats.Writes++
		if b.router != nil && !t.Silent {
			b.router.Write(t.Addr, t.Data)
		}
	} else {
		b.stats.Reads++
		if b.router != nil && !t.Silent {
			// The read lands in the Txn's own buffer, which a pooled
			// Txn keeps from one read to the next.
			if cap(t.Data) < t.Size {
				t.Data = make([]byte, t.Size) //csb:alloc-ok — a Txn's first read of this size
			}
			t.Data = t.Data[:t.Size]
			b.router.Read(t.Addr, t.Data)
		} else if t.Data == nil {
			t.Data = make([]byte, t.Size) //csb:alloc-ok — router-less test configurations only
		}
	}
	for _, fn := range b.observers {
		fn(t)
	}
	if t.Done != nil {
		t.Done(t)
	}
}

// DebugString describes the bus state for diagnostic dumps (the machine
// watchdog's report). Not a hot path.
func (b *Bus) DebugString() string {
	if b.cur == nil {
		return fmt.Sprintf("idle at cycle %d (free at %d, ordered free at %d)",
			b.cycle, b.freeAt, b.ackFreeAt)
	}
	dir := "read"
	if b.cur.Write {
		dir = "write"
	}
	return fmt.Sprintf("cycle %d: %s %dB at %#x in flight (cycles %d..%d, free at %d)",
		b.cycle, dir, b.cur.Size, b.cur.Addr, b.cur.Start, b.cur.End, b.freeAt)
}

// Drain advances the bus until it is idle (test helper and shutdown path).
func (b *Bus) Drain(maxCycles int) bool {
	for i := 0; i < maxCycles; i++ {
		if b.cur == nil {
			return true
		}
		b.Tick()
	}
	return b.cur == nil
}
