// Package cache models the two-level cache hierarchy of the simulated
// machine (paper fig 1): split L1 instruction/data caches backed by a
// unified L2, with miss status holding registers (lockup-free misses), a
// retiring-store write buffer, and line fills/writebacks carried out as
// bus transactions.
//
// The caches are tag-only: data always lives in physical memory and the
// cache structures track presence, dirtiness and recency. This keeps one
// source of truth for data while preserving the timing behaviour the paper
// measures (the CSB experiments never depend on cache data contents, only
// on hit/miss latency and bus occupancy).
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	Size     int // total bytes
	Assoc    int // ways
	LineSize int // bytes
	// HitLatency in CPU cycles for a lookup that hits.
	HitLatency int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d invalid", c.LineSize)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache: associativity %d invalid", c.Assoc)
	}
	if c.Size <= 0 || c.Size%(c.LineSize*c.Assoc) != 0 {
		return fmt.Errorf("cache: size %d not divisible into %d-way sets of %d-byte lines",
			c.Size, c.Assoc, c.LineSize)
	}
	sets := c.Size / (c.LineSize * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: %d sets not a power of two", sets)
	}
	if c.LineSize*sets < 4 {
		// The two top bits of a line's tag word hold its valid and
		// dirty flags, so the tag may take at most 62 address bits.
		return fmt.Errorf("cache: %d sets of %d-byte lines leave a tag wider than 62 bits",
			sets, c.LineSize)
	}
	if c.HitLatency < 0 {
		return fmt.Errorf("cache: negative hit latency")
	}
	return nil
}

// Stats counts per-cache activity.
type Stats struct {
	Hits, Misses, Evictions, Writebacks uint64
}

// line is one way of a set in 16 bytes: key holds the tag in its low 62
// bits (Validate keeps tags that narrow) and the valid and dirty flags in
// its top two, and used is the LRU clock of the last touch.
type line struct {
	key  uint64
	used uint64
}

const (
	validBit = 1 << 63
	dirtyBit = 1 << 62
)

func (l *line) valid() bool { return l.key&validBit != 0 }
func (l *line) dirty() bool { return l.key&dirtyBit != 0 }
func (l *line) tag() uint64 { return l.key &^ (validBit | dirtyBit) }

// holds reports whether l is valid with tag tag.
func (l *line) holds(tag uint64) bool { return l.key&^dirtyBit == tag|validBit }

// chunkSets is how many sets one chunk of the tag array holds: a power
// of two, so a set number splits into chunk and slot by shift and mask.
const (
	chunkShift = 6
	chunkSets  = 1 << chunkShift
)

// Cache is one set-associative tag array with true-LRU replacement. The
// tag array is a list of chunks of chunkSets sets each (one chunk of all
// the sets when there are fewer); set s lives in chunk s/chunkSets, whose
// slot s%chunkSets holds its ways. A chunk is allocated the first time a
// line is filled into one of its sets. Until then its sets read as empty,
// which is exactly how an all-invalid set behaves, so a machine pays only
// for the parts of its caches a program touches. Line size and set count
// are powers of two, so an address splits into set and tag by shift and
// mask.
type Cache struct {
	cfg       Config
	chunks    [][]line
	nsets     uint64
	lineShift uint
	setShift  uint
	clock     uint64
	stats     Stats
}

// New builds a cache level.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newCache(cfg), nil
}

// newCache is New for a valid cfg.
func newCache(cfg Config) *Cache {
	nsets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	return &Cache{
		cfg:       cfg,
		chunks:    make([][]line, (nsets+chunkSets-1)/chunkSets),
		nsets:     uint64(nsets),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setShift:  uint(bits.TrailingZeros(uint(nsets))),
	}
}

// Reset returns the cache to the state New gives with its configuration:
// every line invalid, the LRU clock and statistics at zero. The chunks
// filled so far are cleared and kept, and an all-invalid chunk behaves
// exactly like one never filled.
func (c *Cache) Reset() {
	for _, chunk := range c.chunks {
		clear(chunk)
	}
	c.clock = 0
	c.stats = Stats{}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// index returns the ways of the set addr maps to, the set number and the
// tag. A set whose chunk has never been filled has no ways.
func (c *Cache) index(addr uint64) (ways []line, set uint64, tag uint64) {
	lineAddr := addr >> c.lineShift
	set, tag = lineAddr&(c.nsets-1), lineAddr>>c.setShift
	chunk := c.chunks[set>>chunkShift]
	if chunk == nil {
		return nil, set, tag
	}
	base := int(set&(chunkSets-1)) * c.cfg.Assoc
	return chunk[base : base+c.cfg.Assoc], set, tag
}

// fill allocates the chunk of set, which has never been filled, and
// returns the set's ways.
func (c *Cache) fill(set uint64) []line {
	n := min(c.nsets, chunkSets)
	chunk := make([]line, int(n)*c.cfg.Assoc) //csb:alloc-ok — cold start: a chunk is allocated on its first fill
	c.chunks[set>>chunkShift] = chunk
	base := int(set&(chunkSets-1)) * c.cfg.Assoc
	return chunk[base : base+c.cfg.Assoc]
}

// Lookup probes for the line containing addr, updating LRU state and hit
// or miss counters.
func (c *Cache) Lookup(addr uint64) bool {
	ways, _, tag := c.index(addr)
	c.clock++
	for i := range ways {
		l := &ways[i]
		if l.holds(tag) {
			l.used = c.clock
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Contains probes without touching LRU or statistics.
func (c *Cache) Contains(addr uint64) bool {
	ways, _, tag := c.index(addr)
	for i := range ways {
		if ways[i].holds(tag) {
			return true
		}
	}
	return false
}

// Insert fills the line containing addr, returning the evicted victim's
// line address and dirtiness when a valid line had to be replaced.
func (c *Cache) Insert(addr uint64) (victimAddr uint64, victimDirty, evicted bool) {
	ways, set, tag := c.index(addr)
	if ways == nil {
		ways = c.fill(set)
	}
	c.clock++
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range ways {
		l := &ways[i]
		if l.holds(tag) {
			l.used = c.clock // already present (racing fills)
			return 0, false, false
		}
		if !l.valid() {
			victim = i
			oldest = 0
		} else if l.used < oldest {
			victim = i
			oldest = l.used
		}
	}
	v := &ways[victim]
	if v.valid() {
		evicted = true
		victimDirty = v.dirty()
		victimAddr = (v.tag()*c.nsets + set) * uint64(c.cfg.LineSize)
		c.stats.Evictions++
		if victimDirty {
			c.stats.Writebacks++
		}
	}
	*v = line{key: tag | validBit, used: c.clock}
	return victimAddr, victimDirty, evicted
}

// SetDirty marks the line containing addr dirty (no-op if absent).
func (c *Cache) SetDirty(addr uint64) {
	ways, _, tag := c.index(addr)
	for i := range ways {
		l := &ways[i]
		if l.holds(tag) {
			l.key |= dirtyBit
			return
		}
	}
}

// Invalidate drops the line containing addr, reporting whether it was
// present and dirty.
func (c *Cache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	ways, _, tag := c.index(addr)
	for i := range ways {
		l := &ways[i]
		if l.holds(tag) {
			l.key &^= validBit
			return l.dirty(), true
		}
	}
	return false, false
}

// Preload fills the line containing addr without statistics, for warming
// caches in tests and benchmarks.
func (c *Cache) Preload(addr uint64) {
	ways, set, tag := c.index(addr)
	if ways == nil {
		ways = c.fill(set)
	}
	c.clock++
	for i := range ways {
		if ways[i].holds(tag) {
			return
		}
	}
	for i := range ways {
		if !ways[i].valid() {
			ways[i] = line{key: tag | validBit, used: c.clock}
			return
		}
	}
	ways[0] = line{key: tag | validBit, used: c.clock}
}
