package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := NewMemory()
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	m.Write(0x1000, data)
	got := make([]byte, len(data))
	m.Read(0x1000, got)
	if !bytes.Equal(got, data) {
		t.Errorf("got % x, want % x", got, data)
	}
}

func TestMemoryCrossesPageBoundary(t *testing.T) {
	m := NewMemory()
	addr := uint64(PageSize - 3)
	data := []byte{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}
	m.Write(addr, data)
	got := make([]byte, len(data))
	m.Read(addr, got)
	if !bytes.Equal(got, data) {
		t.Errorf("cross-page: got % x, want % x", got, data)
	}
	if m.PagesTouched() != 2 {
		t.Errorf("pages touched = %d, want 2", m.PagesTouched())
	}
}

func TestMemoryZeroFilled(t *testing.T) {
	m := NewMemory()
	got := make([]byte, 16)
	m.Read(0x123456, got)
	for _, b := range got {
		if b != 0 {
			t.Fatal("fresh memory not zero")
		}
	}
}

func TestMemoryUintHelpers(t *testing.T) {
	m := NewMemory()
	m.WriteUint(0x2000, 8, 0x1122334455667788)
	if got := m.ReadUint(0x2000, 8); got != 0x1122334455667788 {
		t.Errorf("ReadUint8 = %#x", got)
	}
	if got := m.ReadUint(0x2000, 4); got != 0x55667788 {
		t.Errorf("ReadUint4 = %#x", got)
	}
	if got := m.ReadUint(0x2000, 1); got != 0x88 {
		t.Errorf("ReadUint1 = %#x", got)
	}
	m.WriteUint(0x3000, 2, 0xbeef)
	if got := m.ReadUint(0x3000, 2); got != 0xbeef {
		t.Errorf("ReadUint2 = %#x", got)
	}
}

// TestMemoryQuick: writing then reading arbitrary spans round-trips.
func TestMemoryQuick(t *testing.T) {
	m := NewMemory()
	f := func(addr uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		m.Write(uint64(addr), data)
		got := make([]byte, len(data))
		m.Read(uint64(addr), got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPageTableMapLookup(t *testing.T) {
	pt := NewPageTable()
	pt.MapRange(0x10000, 0x40000, PageSize, KindCached, true)
	pte, ok := pt.Lookup(0x10ab4)
	if !ok {
		t.Fatal("lookup missed")
	}
	if pte.PFN != 0x40000>>PageBits || pte.Kind != KindCached || !pte.Writable {
		t.Errorf("pte = %+v", pte)
	}
	if _, ok := pt.Lookup(0x20000); ok {
		t.Error("unmapped page should miss")
	}
	if _, ok := pt.Lookup(0x11000); ok {
		t.Error("page past the range should miss")
	}
	// A later range overrides the pages it covers.
	pt.MapRange(0x10000, 0x90000, PageSize, KindCombining, false)
	pte, _ = pt.Lookup(0x10000)
	if pte.PFN != 0x90000>>PageBits || pte.Kind != KindCombining || pte.Writable {
		t.Errorf("remapped pte = %+v", pte)
	}
	var zero PageTable
	if _, ok := zero.Lookup(0x10000); ok {
		t.Error("zero-value table should miss")
	}
}

func TestPageTableMapRange(t *testing.T) {
	pt := NewPageTable()
	pt.MapRange(0x10000, 0x80000, 3*PageSize+1, KindUncached, true)
	for i := uint64(0); i < 4; i++ {
		pte, ok := pt.Lookup(0x10000 + i*PageSize)
		if !ok {
			t.Fatalf("page %d missing", i)
		}
		if want := (0x80000 >> PageBits) + i; pte.PFN != want {
			t.Errorf("page %d PFN = %#x, want %#x", i, pte.PFN, want)
		}
		if pte.Kind != KindUncached {
			t.Errorf("page %d kind = %v", i, pte.Kind)
		}
	}
	for _, va := range []uint64{0x10000 - 1, 0x10000 + 4*PageSize} {
		if _, ok := pt.Lookup(va); ok {
			t.Errorf("%#x outside the 4 mapped pages resolved", va)
		}
	}
	pt.MapRange(0x40000, 0x40000, 0, KindCombining, true)
	if _, ok := pt.Lookup(0x40000); ok {
		t.Error("a zero-size range mapped a page")
	}
}

// TestPageTableMatchesPageMap drives random sequences of overlapping
// MapRange calls (mixed kinds and writability, some of size zero) and
// checks every page against a per-page map, in which each call writes
// one entry per page it covers and the last write wins.
func TestPageTableMatchesPageMap(t *testing.T) {
	const pages = 64 // virtual pages the ranges fall in
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pt := NewPageTable()
		model := make(map[uint64]PTE)
		for call := 0; call < 1+rng.Intn(12); call++ {
			va := uint64(rng.Intn(pages*PageSize)) &^ 7
			pa := uint64(rng.Intn(1<<30)) &^ 7
			size := uint64(rng.Intn(8 * PageSize))
			if rng.Intn(5) == 0 {
				size = 0
			}
			kind := Kind(rng.Intn(int(numKinds)))
			writable := rng.Intn(2) == 0
			pt.MapRange(va, pa, size, kind, writable)
			if size == 0 {
				continue
			}
			first, last := va>>PageBits, (va+size-1)>>PageBits
			for vpn := first; vpn <= last; vpn++ {
				model[vpn] = PTE{PFN: pa>>PageBits + (vpn - first), Kind: kind, Writable: writable, Valid: true}
			}
		}
		for vpn := uint64(0); vpn < pages+8; vpn++ {
			va := vpn<<PageBits | uint64(rng.Intn(PageSize))
			got, ok := pt.Lookup(va)
			want, wantOK := model[vpn]
			if ok != wantOK || got != want {
				t.Fatalf("seed %d page %#x: Lookup = %+v, %v; per-page map %+v, %v",
					seed, vpn, got, ok, want, wantOK)
			}
		}
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(4)
	pte := PTE{PFN: 7, Kind: KindCombining, Writable: true, Valid: true}
	if _, ok := tlb.Lookup(0x7000, 1); ok {
		t.Fatal("empty TLB hit")
	}
	tlb.Insert(0x7000, 1, pte)
	got, ok := tlb.Lookup(0x7abc, 1)
	if !ok || got != pte {
		t.Fatalf("hit failed: %+v ok=%v", got, ok)
	}
	// Different ASID must miss.
	if _, ok := tlb.Lookup(0x7000, 2); ok {
		t.Error("ASID mismatch should miss")
	}
	if tlb.Hits != 1 || tlb.Misses != 2 {
		t.Errorf("stats hits=%d misses=%d", tlb.Hits, tlb.Misses)
	}
}

func TestTLBLRUReplacement(t *testing.T) {
	tlb := NewTLB(2)
	p := func(pfn uint64) PTE { return PTE{PFN: pfn, Valid: true} }
	tlb.Insert(0x1000, 0, p(1))
	tlb.Insert(0x2000, 0, p(2))
	tlb.Lookup(0x1000, 0) // touch 0x1000 so 0x2000 is LRU
	tlb.Insert(0x3000, 0, p(3))
	if _, ok := tlb.Lookup(0x2000, 0); ok {
		t.Error("LRU entry 0x2000 should have been evicted")
	}
	if _, ok := tlb.Lookup(0x1000, 0); !ok {
		t.Error("recently used entry 0x1000 evicted")
	}
	if _, ok := tlb.Lookup(0x3000, 0); !ok {
		t.Error("new entry 0x3000 missing")
	}
}

func TestTLBInsertUpdatesExisting(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Insert(0x1000, 0, PTE{PFN: 1, Valid: true})
	tlb.Insert(0x1000, 0, PTE{PFN: 2, Valid: true})
	got, ok := tlb.Lookup(0x1000, 0)
	if !ok || got.PFN != 2 {
		t.Errorf("update failed: %+v", got)
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := NewTLB(8)
	tlb.Insert(0x1000, 1, PTE{PFN: 1, Valid: true})
	tlb.Insert(0x2000, 2, PTE{PFN: 2, Valid: true})
	tlb.FlushASID(1)
	if _, ok := tlb.Lookup(0x1000, 1); ok {
		t.Error("ASID 1 entry survived FlushASID")
	}
	if _, ok := tlb.Lookup(0x2000, 2); !ok {
		t.Error("ASID 2 entry wrongly flushed")
	}
	tlb.FlushAll()
	if _, ok := tlb.Lookup(0x2000, 2); ok {
		t.Error("entry survived FlushAll")
	}
}

type fakeTarget struct {
	lastWrite []byte
	lastAddr  uint64
}

func (f *fakeTarget) ReadTarget(pa uint64, dst []byte) { clear(dst) }
func (f *fakeTarget) WriteTarget(pa uint64, data []byte) {
	f.lastAddr = pa
	f.lastWrite = append([]byte(nil), data...)
}

func TestRouterDeviceDispatch(t *testing.T) {
	ram := NewMemory()
	rt := NewRouter(ram)
	dev := &fakeTarget{}
	rt.SetDevice(0x4000_0000, 0x1000, dev)
	// Device range goes to the device.
	rt.Write(0x4000_0010, []byte{1, 2, 3})
	if dev.lastAddr != 0x4000_0010 || len(dev.lastWrite) != 3 {
		t.Errorf("device write not routed: %+v", dev)
	}
	// Either side of the window goes to RAM.
	rt.Write(0x3fff_ffff, []byte{7})
	rt.Write(0x4000_1000, []byte{8})
	if dev.lastAddr != 0x4000_0010 || ram.ReadUint(0x3fff_ffff, 1) != 7 || ram.ReadUint(0x4000_1000, 1) != 8 {
		t.Errorf("write beside the device window routed to the device: %+v", dev)
	}
	// Without a device the window's addresses are RAM again.
	rt.SetDevice(0, 0, nil)
	rt.Write(0x4000_0010, []byte{4})
	if dev.lastAddr != 0x4000_0010 || len(dev.lastWrite) != 3 || ram.ReadUint(0x4000_0010, 1) != 4 {
		t.Errorf("write after the device went routed to it: %+v", dev)
	}
	// Other addresses go to RAM.
	rt.Write(0x1000, []byte{9})
	if got := ram.ReadUint(0x1000, 1); got != 9 {
		t.Error("RAM write not routed")
	}
	got := make([]byte, 1)
	if rt.Read(0x1000, got); got[0] != 9 {
		t.Error("RAM read not routed")
	}
}

func TestKindString(t *testing.T) {
	if KindCached.String() != "cached" || KindCombining.String() != "combining" {
		t.Error("Kind.String wrong")
	}
}
