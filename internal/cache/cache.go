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

import "fmt"

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
	if c.HitLatency < 0 {
		return fmt.Errorf("cache: negative hit latency")
	}
	return nil
}

// Stats counts per-cache activity.
type Stats struct {
	Hits, Misses, Evictions, Writebacks uint64
}

type line struct {
	tag   uint64
	used  uint64
	valid bool
	dirty bool
}

// Cache is one set-associative tag array with true-LRU replacement. The
// tag array is one flat slice: set s holds lines[s*assoc : (s+1)*assoc].
type Cache struct {
	cfg   Config
	lines []line
	nsets uint64
	clock uint64
	stats Stats
}

// New builds a cache level.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	return &Cache{cfg: cfg, lines: make([]line, nsets*cfg.Assoc), nsets: uint64(nsets)}, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// index returns the ways of the set addr maps to, the set number and the
// tag.
func (c *Cache) index(addr uint64) (ways []line, set uint64, tag uint64) {
	lineAddr := addr / uint64(c.cfg.LineSize)
	set, tag = lineAddr%c.nsets, lineAddr/c.nsets
	base := int(set) * c.cfg.Assoc
	return c.lines[base : base+c.cfg.Assoc], set, tag
}

// Lookup probes for the line containing addr, updating LRU state and hit
// or miss counters.
func (c *Cache) Lookup(addr uint64) bool {
	ways, _, tag := c.index(addr)
	c.clock++
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
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
		l := &ways[i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Insert fills the line containing addr, returning the evicted victim's
// line address and dirtiness when a valid line had to be replaced.
func (c *Cache) Insert(addr uint64) (victimAddr uint64, victimDirty, evicted bool) {
	ways, set, tag := c.index(addr)
	c.clock++
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			l.used = c.clock // already present (racing fills)
			return 0, false, false
		}
		if !l.valid {
			victim = i
			oldest = 0
		} else if l.used < oldest {
			victim = i
			oldest = l.used
		}
	}
	v := &ways[victim]
	if v.valid {
		evicted = true
		victimDirty = v.dirty
		victimAddr = (v.tag*c.nsets + set) * uint64(c.cfg.LineSize)
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
		}
	}
	*v = line{tag: tag, used: c.clock, valid: true}
	return victimAddr, victimDirty, evicted
}

// SetDirty marks the line containing addr dirty (no-op if absent).
func (c *Cache) SetDirty(addr uint64) {
	ways, _, tag := c.index(addr)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			l.dirty = true
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
		if l.valid && l.tag == tag {
			l.valid = false
			return l.dirty, true
		}
	}
	return false, false
}

// Preload fills the line containing addr without statistics, for warming
// caches in tests and benchmarks.
func (c *Cache) Preload(addr uint64) {
	ways, _, tag := c.index(addr)
	c.clock++
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			return
		}
	}
	for i := range ways {
		if !ways[i].valid {
			ways[i] = line{tag: tag, used: c.clock, valid: true}
			return
		}
	}
	ways[0] = line{tag: tag, used: c.clock, valid: true}
}
