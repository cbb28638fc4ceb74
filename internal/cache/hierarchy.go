package cache

import (
	"fmt"

	"csbsim/internal/bus"
	"csbsim/internal/obs/counters"
)

// HierConfig describes the whole cache hierarchy.
type HierConfig struct {
	L1I, L1D, L2 Config
	// L2Latency is the additional CPU-cycle cost of probing L2 after an
	// L1 miss.
	L2Latency int
	// MSHRs bounds concurrently outstanding line fills (lockup-free
	// caches, as in the paper's R10000-like core).
	MSHRs int
	// WriteBuffer is the depth of the retiring-store write buffer.
	WriteBuffer int
}

// DefaultHierConfig mirrors the paper's base machine: 32 KB split L1s,
// 256 KB unified L2, 64-byte lines.
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1I:         Config{Size: 32 << 10, Assoc: 2, LineSize: 64, HitLatency: 1},
		L1D:         Config{Size: 32 << 10, Assoc: 2, LineSize: 64, HitLatency: 1},
		L2:          Config{Size: 256 << 10, Assoc: 4, LineSize: 64, HitLatency: 6},
		L2Latency:   6,
		MSHRs:       8,
		WriteBuffer: 8,
	}
}

// Validate reports configuration errors.
func (c HierConfig) Validate() error {
	for _, lv := range []Config{c.L1I, c.L1D, c.L2} {
		if err := lv.Validate(); err != nil {
			return err
		}
	}
	if c.L1I.LineSize != c.L2.LineSize || c.L1D.LineSize != c.L2.LineSize {
		return fmt.Errorf("cache: line sizes differ between levels")
	}
	if c.MSHRs <= 0 || c.WriteBuffer <= 0 {
		return fmt.Errorf("cache: MSHRs and WriteBuffer must be positive")
	}
	return nil
}

// HierStats aggregates hierarchy-level counters.
type HierStats struct {
	L1I, L1D, L2 Stats
	Fills        uint64
	Writebacks   uint64
	StoreStalls  uint64
}

type mshrState uint8

const (
	mshrProbeL2 mshrState = iota // waiting out the L2 lookup latency
	mshrNeedBus                  // L2 missed; waiting for the bus
	mshrOnBus                    // line fill in flight
)

type mshr struct {
	lineAddr  uint64
	fetch     bool
	state     mshrState
	countdown int
	callbacks []func()
	txn       bus.Txn // its line fill, reused by every fill it makes
}

// Hierarchy ties the three caches together and handles misses through the
// system bus.
type Hierarchy struct {
	cfg HierConfig
	l1i *Cache
	l1d *Cache
	l2  *Cache

	mshrs      []*mshr  // busy, in allocation order
	freeMSHRs  []*mshr  // idle, for reuse
	writebacks []uint64 // line addresses queued for bus writeback
	writeBuf   []uint64 // retiring cached stores (addresses)
	storeMiss  bool     // head of writeBuf is waiting on a fill

	// silentBuf is the payload of the Silent fills and writebacks
	// (tag-only model: the bus only checks the length, never the bytes).
	silentBuf []byte
	wb        bus.Txn // the writeback, reused

	stats HierStats
}

// NewHierarchy builds the cache hierarchy.
func NewHierarchy(cfg HierConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l1i, err := New(cfg.L1I)
	if err != nil {
		return nil, err
	}
	l1d, err := New(cfg.L1D)
	if err != nil {
		return nil, err
	}
	l2, err := New(cfg.L2)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{
		cfg: cfg, l1i: l1i, l1d: l1d, l2: l2,
		writeBuf:  make([]uint64, 0, cfg.WriteBuffer),
		silentBuf: make([]byte, cfg.L2.LineSize),
	}, nil
}

// Reset returns the hierarchy to the state NewHierarchy(cfg) gives: all
// three caches empty, no miss, writeback or buffered store pending, and
// statistics cleared. A fill or writeback in flight is dropped with its
// waiters. A level whose geometry is unchanged is cleared in place
// (Cache.Reset), any other is rebuilt; the MSHRs and queues keep their
// storage. cfg must be valid (sim.Machine.Reset validates the whole
// machine's first).
func (h *Hierarchy) Reset(cfg HierConfig) {
	levels := [3]*Cache{h.l1i, h.l1d, h.l2}
	for i, lc := range [3]Config{cfg.L1I, cfg.L1D, cfg.L2} {
		if levels[i].cfg == lc {
			levels[i].Reset()
		} else {
			levels[i] = newCache(lc)
		}
	}
	free := h.freeMSHRs
	for _, m := range h.mshrs {
		clear(m.callbacks)
		m.callbacks = m.callbacks[:0]
		free = append(free, m)
	}
	silent, writeBuf := h.silentBuf, h.writeBuf[:0]
	if len(silent) != cfg.L2.LineSize {
		// The pooled fills carry the old line size.
		silent, free = make([]byte, cfg.L2.LineSize), nil
	}
	if cap(writeBuf) < cfg.WriteBuffer {
		writeBuf = make([]uint64, 0, cfg.WriteBuffer)
	}
	*h = Hierarchy{
		cfg: cfg, l1i: levels[0], l1d: levels[1], l2: levels[2],
		mshrs: h.mshrs[:0], freeMSHRs: free,
		writebacks: h.writebacks[:0], writeBuf: writeBuf, silentBuf: silent,
	}
}

// LineSize returns the hierarchy's line size in bytes.
func (h *Hierarchy) LineSize() int { return h.cfg.L2.LineSize }

// Stats returns a snapshot of all counters.
func (h *Hierarchy) Stats() HierStats {
	s := h.stats
	s.L1I = h.l1i.Stats()
	s.L1D = h.l1d.Stats()
	s.L2 = h.l2.Stats()
	return s
}

// RegisterCounters registers the hierarchy's counters with the unified
// registry under prefix (e.g. "cache"), as read closures over the live
// stats — registration never perturbs simulation state.
func (h *Hierarchy) RegisterCounters(prefix string, r *counters.Registry) {
	for _, lvl := range []struct {
		name string
		c    *Cache
	}{{"l1i", h.l1i}, {"l1d", h.l1d}, {"l2", h.l2}} {
		c := lvl.c
		r.Counter(prefix+"/"+lvl.name+"/hits", func() uint64 { return c.stats.Hits })
		r.Counter(prefix+"/"+lvl.name+"/misses", func() uint64 { return c.stats.Misses })
		r.Counter(prefix+"/"+lvl.name+"/evictions", func() uint64 { return c.stats.Evictions })
	}
	r.Counter(prefix+"/fills", func() uint64 { return h.stats.Fills })
	r.Counter(prefix+"/writebacks", func() uint64 { return h.stats.Writebacks })
	r.Counter(prefix+"/store_stalls", func() uint64 { return h.stats.StoreStalls })
	r.Gauge(prefix+"/write_buf_depth", func() uint64 { return uint64(len(h.writeBuf)) })
}

// L1D exposes the data cache (used by tests and warmup helpers).
func (h *Hierarchy) L1D() *Cache { return h.l1d }

// L1I exposes the instruction cache.
func (h *Hierarchy) L1I() *Cache { return h.l1i }

// L2 exposes the unified second-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

func (h *Hierarchy) line(addr uint64) uint64 {
	return addr &^ uint64(h.cfg.L2.LineSize-1)
}

// l1 returns the instruction cache for fetches, else the data cache.
func (h *Hierarchy) l1(fetch bool) *Cache {
	if fetch {
		return h.l1i
	}
	return h.l1d
}

// Load initiates a cached read (fetch selects L1I). On a hit it returns
// (latency, true, true). On a miss being handled it returns (0, false,
// true) and runs done once the line is resident in L1 (the caller then
// pays the hit latency). accepted=false means no MSHR was available; retry
// next cycle.
func (h *Hierarchy) Load(addr uint64, fetch bool, done func()) (latency int, hit, accepted bool) {
	if l1 := h.l1(fetch); l1.Lookup(addr) {
		return l1.Config().HitLatency, true, true
	}
	return 0, false, h.addMiss(addr, fetch, done)
}

// Present reports whether addr hits in the given L1 without disturbing
// LRU/statistics.
func (h *Hierarchy) Present(addr uint64, fetch bool) bool {
	return h.l1(fetch).Contains(addr)
}

// MarkDirty marks the L1D line dirty (atomics and direct writes).
func (h *Hierarchy) MarkDirty(addr uint64) { h.l1d.SetDirty(addr) }

// addMiss attaches to an existing MSHR or allocates one.
func (h *Hierarchy) addMiss(addr uint64, fetch bool, done func()) bool {
	la := h.line(addr)
	for _, m := range h.mshrs {
		if m.lineAddr == la && m.fetch == fetch {
			if done != nil {
				m.callbacks = append(m.callbacks, done)
			}
			return true
		}
	}
	if len(h.mshrs) >= h.cfg.MSHRs {
		return false
	}
	m := h.newMSHR()
	m.lineAddr, m.fetch, m.state, m.countdown, m.txn.Addr = la, fetch, mshrProbeL2, h.cfg.L2Latency, la
	if done != nil {
		m.callbacks = append(m.callbacks, done)
	}
	h.mshrs = append(h.mshrs, m)
	return true
}

// newMSHR takes an idle MSHR, or allocates one with its fill: a Silent
// read (the tag-only cache takes no data) whose Done installs the line.
func (h *Hierarchy) newMSHR() *mshr {
	if n := len(h.freeMSHRs); n > 0 {
		m := h.freeMSHRs[n-1]
		h.freeMSHRs = h.freeMSHRs[:n-1]
		return m
	}
	m := &mshr{} //csb:alloc-ok — cold start: the pool grows to cfg.MSHRs
	m.txn = bus.Txn{Size: len(h.silentBuf), Data: h.silentBuf, Silent: true, Done: func(*bus.Txn) {
		if victim, dirty, evicted := h.l2.Insert(m.lineAddr); evicted && dirty {
			h.writebacks = append(h.writebacks, victim)
		}
		h.finishFill(m)
	}}
	return m
}

// Store enqueues a retiring cached store. It returns false when the write
// buffer is full (retire stalls).
func (h *Hierarchy) Store(addr uint64) bool {
	if len(h.writeBuf) >= h.cfg.WriteBuffer {
		h.stats.StoreStalls++
		return false
	}
	h.writeBuf = append(h.writeBuf, addr)
	return true
}

// StoreBufferEmpty reports whether all retired cached stores have reached
// the cache (MEMBAR waits on this as well as the uncached buffer).
func (h *Hierarchy) StoreBufferEmpty() bool { return len(h.writeBuf) == 0 }

// WriteBufDepth returns the number of retired cached stores still waiting
// in the write buffer.
func (h *Hierarchy) WriteBufDepth() int { return len(h.writeBuf) }

// TickCPU advances CPU-clocked state: L2 probe countdowns and one write
// buffer drain per cycle. It walks the MSHRs busy at the start of the
// cycle by index, because an L2 hit's fill removes its MSHR from the
// list and shifts the later ones down onto its slot.
func (h *Hierarchy) TickCPU() {
	for i, n := 0, len(h.mshrs); i < n; i++ {
		m := h.mshrs[i]
		if m.state != mshrProbeL2 {
			continue
		}
		if m.countdown > 0 {
			m.countdown--
			continue
		}
		if h.l2.Lookup(m.lineAddr) {
			// L2 hit: fill L1 immediately (transfer time is folded
			// into L2Latency).
			h.finishFill(m)
			i, n = i-1, n-1
		} else {
			m.state = mshrNeedBus
		}
	}
	h.drainWriteBuffer()
}

func (h *Hierarchy) drainWriteBuffer() {
	if len(h.writeBuf) == 0 || h.storeMiss {
		return
	}
	addr := h.writeBuf[0]
	if h.l1d.Lookup(addr) {
		h.l1d.SetDirty(addr)
		h.popWriteBuf()
		return
	}
	// Write-allocate: fetch the line, then complete the store.
	h.storeMiss = h.addMiss(addr, false, func() {
		h.l1d.SetDirty(addr)
		h.popWriteBuf()
		h.storeMiss = false
	})
}

// popWriteBuf removes the head store by shifting in place, so the buffer
// keeps its backing array (≤ WriteBuffer entries) instead of re-slicing
// toward a reallocation.
func (h *Hierarchy) popWriteBuf() {
	copy(h.writeBuf, h.writeBuf[1:])
	h.writeBuf = h.writeBuf[:len(h.writeBuf)-1]
}

// finishFill installs the line in L2 (if it came from memory) and the
// requesting L1, queues any dirty victims for writeback, and fires the
// waiters.
func (h *Hierarchy) finishFill(m *mshr) {
	if victim, dirty, evicted := h.l1(m.fetch).Insert(m.lineAddr); evicted && dirty {
		// L1 dirty victim folds into L2 (no bus traffic).
		h.l2.SetDirty(victim)
	}
	h.stats.Fills++
	for _, cb := range m.callbacks {
		cb()
	}
	m.callbacks = m.callbacks[:0]
	// Move m from the MSHR list to the free list.
	for i, x := range h.mshrs {
		if x == m {
			h.mshrs = append(h.mshrs[:i], h.mshrs[i+1:]...)
			h.freeMSHRs = append(h.freeMSHRs, m)
			break
		}
	}
}

// TickBus lets the hierarchy issue at most one bus transaction: pending
// line fills take priority over writebacks. It skips a busy bus, which
// refuses both before any fault draw, so wb is never rewritten in flight.
func (h *Hierarchy) TickBus(b *bus.Bus) {
	if !b.CanIssue(false) {
		return
	}
	for _, m := range h.mshrs {
		if m.state != mshrNeedBus {
			continue
		}
		if b.TryIssue(&m.txn) {
			m.state = mshrOnBus
		}
		return
	}
	if len(h.writebacks) > 0 {
		h.wb = bus.Txn{Addr: h.writebacks[0], Size: len(h.silentBuf), Write: true, Data: h.silentBuf, Silent: true}
		if b.TryIssue(&h.wb) {
			copy(h.writebacks, h.writebacks[1:])
			h.writebacks = h.writebacks[:len(h.writebacks)-1]
			h.stats.Writebacks++
		}
	}
}

// NeedsBus reports whether the hierarchy has bus work pending (fills
// waiting for the bus or queued writebacks); Machine.Tick skips the
// TickBus call otherwise.
func (h *Hierarchy) NeedsBus() bool {
	return len(h.mshrs) != 0 || len(h.writebacks) != 0
}

// Idle reports whether no miss or writeback activity is pending.
func (h *Hierarchy) Idle() bool {
	return len(h.mshrs) == 0 && len(h.writebacks) == 0 && len(h.writeBuf) == 0
}

// Warm preloads the line containing addr into L1D and L2 (benchmark
// setup, e.g. making the lock hit in L1 for figure 5a).
func (h *Hierarchy) Warm(addr uint64, fetch bool) {
	h.l2.Preload(h.line(addr))
	h.l1(fetch).Preload(h.line(addr))
}
