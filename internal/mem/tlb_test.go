package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// scanTLB is the TLB without its last-hit slot: every Lookup scans all
// entries. TestTLBLastHitMatchesScan holds the real TLB to it.
type scanTLB struct {
	entries      []tlbEntry
	clock        uint64
	Hits, Misses uint64
}

func (t *scanTLB) Lookup(va uint64, asid uint8) (PTE, bool) {
	vpn := va >> PageBits
	t.clock++
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn && e.asid == asid {
			e.used = t.clock
			t.Hits++
			return e.pte, true
		}
	}
	t.Misses++
	return PTE{}, false
}

func (t *scanTLB) Insert(va uint64, asid uint8, pte PTE) {
	vpn := va >> PageBits
	t.clock++
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn && e.asid == asid {
			e.pte = pte
			e.used = t.clock
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
}

func (t *scanTLB) FlushASID(asid uint8) {
	for i := range t.entries {
		if t.entries[i].asid == asid {
			t.entries[i].valid = false
		}
	}
}

func (t *scanTLB) FlushAll() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
}

// TestTLBLastHitMatchesScan drives random Lookup/Insert/Flush sequences,
// biased toward repeated pages as a real access stream is, through the
// TLB and the plain scan, and compares every lookup result, the hit and
// miss counts, and the whole entry array (tags, LRU stamps and so the
// eviction order) after every operation.
func TestTLBLastHitMatchesScan(t *testing.T) {
	for _, size := range []int{1, 2, 4, 64} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got := NewTLB(size)
			want := &scanTLB{entries: make([]tlbEntry, size)}
			pages := uint64(2 + rng.Intn(3*size))
			va := uint64(0)
			for op := 0; op < 5000; op++ {
				if rng.Intn(4) != 0 {
					va = uint64(rng.Int63n(int64(pages))) << PageBits
				}
				asid := uint8(rng.Intn(3))
				switch r := rng.Intn(100); {
				case r < 70:
					gp, gok := got.Lookup(va+uint64(rng.Intn(PageSize)), asid)
					wp, wok := want.Lookup(va, asid)
					if gp != wp || gok != wok {
						t.Fatalf("size %d seed %d op %d: Lookup(%#x, %d) = %+v %v, scan %+v %v",
							size, seed, op, va, asid, gp, gok, wp, wok)
					}
				case r < 95:
					pte := PTE{PFN: uint64(rng.Intn(1 << 20)), Kind: Kind(rng.Intn(3)), Writable: rng.Intn(2) == 0, Valid: true}
					got.Insert(va, asid, pte)
					want.Insert(va, asid, pte)
				case r < 99:
					got.FlushASID(asid)
					want.FlushASID(asid)
				default:
					got.FlushAll()
					want.FlushAll()
				}
				if got.Hits != want.Hits || got.Misses != want.Misses || got.clock != want.clock {
					t.Fatalf("size %d seed %d op %d: hits/misses/clock %d/%d/%d, scan %d/%d/%d",
						size, seed, op, got.Hits, got.Misses, got.clock, want.Hits, want.Misses, want.clock)
				}
				if !slices.Equal(got.entries, want.entries) {
					t.Fatalf("size %d seed %d op %d: entries\n%+v\nscan\n%+v", size, seed, op, got.entries, want.entries)
				}
			}
		}
	}
}
