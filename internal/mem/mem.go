// Package mem models the machine's memory substrate: sparse physical
// memory, per-process page tables with attribute bits, an ASID-tagged TLB,
// and the physical-address router that directs accesses to RAM or to
// memory-mapped devices.
//
// Page attributes are the mechanism the paper uses to steer stores (§3.1):
// a page is cached, uncached, or uncached-combining. Stores to combining
// pages are captured by the conditional store buffer; a swap to a combining
// page is the conditional flush.
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageBits and PageSize define the (fixed) 4 KB page geometry.
const (
	PageBits = 12
	PageSize = 1 << PageBits
	pageMask = PageSize - 1
)

// ByteOrder is the simulated machine's byte order (little-endian).
var ByteOrder = binary.LittleEndian

// Memory is sparse physical memory. Pages materialize (zero-filled) on
// first touch.
type Memory struct {
	pages map[uint64]*[PageSize]byte
	// free holds the zeroed pages Reset took back, reused before new
	// ones are allocated.
	free []*[PageSize]byte
}

// NewMemory returns an empty physical memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte)}
}

func (m *Memory) page(pa uint64) *[PageSize]byte {
	pn := pa >> PageBits
	p, ok := m.pages[pn]
	if !ok {
		if n := len(m.free); n > 0 {
			p = m.free[n-1]
			m.free = m.free[:n-1]
		} else {
			p = new([PageSize]byte)
		}
		m.pages[pn] = p
	}
	return p
}

// Reset empties memory, as NewMemory does, keeping the pages it held:
// each is zeroed and reused by a later first touch, so the work is one
// page clear per page the last run touched.
func (m *Memory) Reset() {
	for _, p := range m.pages { //csb:orderless — which zeroed page serves which frame is invisible
		*p = [PageSize]byte{}
		m.free = append(m.free, p)
	}
	clear(m.pages)
}

// Read copies len(dst) bytes starting at physical address pa.
func (m *Memory) Read(pa uint64, dst []byte) {
	for len(dst) > 0 {
		p := m.page(pa)
		off := pa & pageMask
		n := copy(dst, p[off:])
		dst = dst[n:]
		pa += uint64(n)
	}
}

// Write copies src into physical memory starting at pa.
func (m *Memory) Write(pa uint64, src []byte) {
	for len(src) > 0 {
		p := m.page(pa)
		off := pa & pageMask
		n := copy(p[off:], src)
		src = src[n:]
		pa += uint64(n)
	}
}

// ReadUint reads an n-byte little-endian unsigned integer (n in 1,2,4,8).
func (m *Memory) ReadUint(pa uint64, n int) uint64 {
	var buf [8]byte
	m.Read(pa, buf[:n])
	return ByteOrder.Uint64(buf[:])
}

// WriteUint writes an n-byte little-endian unsigned integer.
func (m *Memory) WriteUint(pa uint64, n int, v uint64) {
	var buf [8]byte
	ByteOrder.PutUint64(buf[:], v)
	m.Write(pa, buf[:n])
}

// PagesTouched reports how many physical pages have been materialized.
func (m *Memory) PagesTouched() int { return len(m.pages) }

// Kind classifies a page's access policy (paper §3.1: attribute bits in the
// page table entry).
type Kind uint8

const (
	// KindCached pages go through the cache hierarchy.
	KindCached Kind = iota
	// KindUncached pages bypass the caches; stores enter the uncached
	// buffer, loads block until the bus transaction completes.
	KindUncached
	// KindCombining pages are uncached-combining: stores are captured by
	// the conditional store buffer and a swap is the conditional flush.
	KindCombining
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindCached:
		return "cached"
	case KindUncached:
		return "uncached"
	case KindCombining:
		return "combining"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// PTE is a page-table entry: translation plus attributes.
type PTE struct {
	PFN      uint64 // physical frame number (pa >> PageBits)
	Kind     Kind
	Writable bool
	Valid    bool
}

// PageTable maps one process's virtual pages to PTEs. It keeps the mapped
// ranges in mapping order; a later range overrides an earlier one on the
// pages they share. The zero value is an empty table.
type PageTable struct {
	ranges []pageRange
}

// pageRange maps the virtual pages [first, last] to consecutive frames
// from pfn on.
type pageRange struct {
	first, last uint64 // virtual page numbers, inclusive
	pfn         uint64
	kind        Kind
	writable    bool
}

// Reset empties the table, keeping its storage.
func (pt *PageTable) Reset() { pt.ranges = pt.ranges[:0] }

// NewPageTable returns an empty page table.
func NewPageTable() *PageTable {
	return &PageTable{}
}

// MapRange maps [va, va+size) to [pa, pa+size), page by page. A size of
// zero maps nothing.
func (pt *PageTable) MapRange(va, pa, size uint64, kind Kind, writable bool) {
	if size == 0 {
		return
	}
	pt.ranges = append(pt.ranges, pageRange{
		first: va >> PageBits, last: (va + size - 1) >> PageBits,
		pfn: pa >> PageBits, kind: kind, writable: writable,
	})
}

// Lookup returns the PTE for the page containing va: the newest range
// that covers it decides.
func (pt *PageTable) Lookup(va uint64) (PTE, bool) {
	vpn := va >> PageBits
	for i := len(pt.ranges) - 1; i >= 0; i-- {
		r := &pt.ranges[i]
		if vpn >= r.first && vpn <= r.last {
			return PTE{PFN: r.pfn + (vpn - r.first), Kind: r.kind, Writable: r.writable, Valid: true}, true
		}
	}
	return PTE{}, false
}
