package cpu

import "csbsim/internal/isa"

// The decoded-instruction cache memoizes fetch's RAM read + decode per PC:
// a direct-mapped, PC-tagged array consulted before touching memory. The
// simulated programs are static, so a hit is always correct as long as the
// cache is invalidated whenever instruction bytes could have changed:
//
//   - wholesale (a generation bump) on Reset, RestoreState and
//     FlushPipeline — the points where a program is (re)loaded or the
//     kernel has mutated state behind the pipeline's back;
//   - per line on CPU-initiated RAM writes (cached store commit, cached
//     swap), in case a program writes over its own text.
//
// DMA writes are NOT snooped, matching the I-cache model (which also never
// observes device writes): a program that DMA'd over its own code was
// already incoherent before this cache existed.
//
// The array starts small, since most programs are short loops, and grows
// x4 (up to decCacheMax) the first time a miss would evict a live entry
// for another PC. Growth only costs refetches, never a result.

const (
	decCacheMin = 256  // entries; instructions are 4-byte aligned
	decCacheMax = 4096 // entries
)

type decEntry struct {
	pc   uint64
	gen  uint32
	inst isa.Inst
}

// decSlot returns the cache entry pc maps to.
func (c *CPU) decSlot(pc uint64) *decEntry {
	return &c.decCache[(pc>>2)&uint64(len(c.decCache)-1)]
}

// decode returns the instruction at pc, from the decode cache when
// possible.
func (c *CPU) decode(pc uint64) isa.Inst {
	e := c.decSlot(pc)
	if e.gen == c.decGen && e.pc == pc {
		return e.inst
	}
	if e.gen == c.decGen && len(c.decCache) < decCacheMax {
		c.growDecodeCache()
		e = c.decSlot(pc)
	}
	in := isa.Decode(uint32(c.ram.ReadUint(pc, 4)))
	*e = decEntry{pc: pc, gen: c.decGen, inst: in}
	return in
}

// growDecodeCache quadruples the decode cache and keeps its live entries:
// each keeps its index bits, so no two collide in the larger array.
func (c *CPU) growDecodeCache() {
	old := c.decCache
	c.decCache = make([]decEntry, 4*len(old))
	for _, e := range old {
		if e.gen == c.decGen {
			*c.decSlot(e.pc) = e
		}
	}
}

// invalidateDecodeCache drops every cached decode in O(1) by bumping the
// generation tag.
func (c *CPU) invalidateDecodeCache() {
	c.decGen++
}

// decInvalidate drops cached decodes overlapping a CPU store to RAM.
func (c *CPU) decInvalidate(pa uint64, size int) {
	for a := pa &^ 3; a < pa+uint64(size); a += 4 {
		e := c.decSlot(a)
		if e.pc == a {
			e.gen = 0
		}
	}
}
