package mem

// TLB is a fully-associative, ASID-tagged translation lookaside buffer with
// true-LRU replacement. ASID tagging is what lets the simulated kernel
// switch processes without flushing (paper §3.1 cites the MIPS 8-bit space
// ID, PA-RISC's 18-bit space ID and the Alpha 21164's 7-bit PID for the
// same purpose: the current process ID is available to hardware — including
// the CSB — at run time).
type TLB struct {
	entries []tlbEntry
	// last is the slot of the most recent hit or insert, checked before
	// the scan: consecutive accesses mostly fall in one page. The check
	// compares the whole tag, so any stale slot is merely a miss of the
	// shortcut, and a (vpn, asid) pair is valid in at most one slot, so
	// the shortcut finds the same entry the scan would.
	last  int
	clock uint64
	// Stats
	Hits, Misses uint64
}

type tlbEntry struct {
	vpn   uint64
	asid  uint8
	pte   PTE
	used  uint64
	valid bool
}

// NewTLB returns a TLB with the given number of entries (64 is typical).
func NewTLB(entries int) *TLB {
	if entries <= 0 {
		entries = 64
	}
	return &TLB{entries: make([]tlbEntry, entries)}
}

// Reset returns the TLB to the state NewTLB(entries) gives, keeping its
// entry array when the size is unchanged.
func (t *TLB) Reset(entries int) {
	if entries <= 0 {
		entries = 64
	}
	e := t.entries
	if len(e) == entries {
		clear(e)
	} else {
		e = make([]tlbEntry, entries)
	}
	*t = TLB{entries: e}
}

// Lookup translates va under asid. It returns the PTE and whether the
// translation hit.
func (t *TLB) Lookup(va uint64, asid uint8) (PTE, bool) {
	vpn := va >> PageBits
	t.clock++
	if e := &t.entries[t.last]; e.valid && e.vpn == vpn && e.asid == asid {
		e.used = t.clock
		t.Hits++
		return e.pte, true
	}
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn && e.asid == asid {
			e.used = t.clock
			t.Hits++
			t.last = i
			return e.pte, true
		}
	}
	t.Misses++
	return PTE{}, false
}

// Insert installs a translation, evicting the least recently used entry if
// the TLB is full.
func (t *TLB) Insert(va uint64, asid uint8, pte PTE) {
	vpn := va >> PageBits
	t.clock++
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn && e.asid == asid {
			e.pte = pte
			e.used = t.clock
			t.last = i
			return
		}
		if !e.valid {
			victim = i
			oldest = 0
		} else if e.used < oldest {
			victim = i
			oldest = e.used
		}
	}
	t.entries[victim] = tlbEntry{vpn: vpn, asid: asid, pte: pte, used: t.clock, valid: true}
	t.last = victim
}

// FlushASID invalidates all entries belonging to one address space.
func (t *TLB) FlushASID(asid uint8) {
	for i := range t.entries {
		if t.entries[i].asid == asid {
			t.entries[i].valid = false
		}
	}
}

// FlushAll invalidates the entire TLB.
func (t *TLB) FlushAll() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
}

// Size returns the number of entry slots.
func (t *TLB) Size() int { return len(t.entries) }
