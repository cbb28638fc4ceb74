package cache

import (
	"math/rand"
	"testing"

	"csbsim/internal/bus"
)

func small() Config {
	return Config{Size: 256, Assoc: 2, LineSize: 64, HitLatency: 1}
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		small(),
		{Size: 32 << 10, Assoc: 2, LineSize: 64, HitLatency: 1},
		{Size: 64, Assoc: 1, LineSize: 64},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good config %+v rejected: %v", c, err)
		}
	}
	bad := []Config{
		{Size: 0, Assoc: 1, LineSize: 64},
		{Size: 100, Assoc: 1, LineSize: 64},
		{Size: 256, Assoc: 0, LineSize: 64},
		{Size: 256, Assoc: 2, LineSize: 48},
		{Size: 192, Assoc: 1, LineSize: 64}, // 3 sets
		{Size: 256, Assoc: 2, LineSize: 64, HitLatency: -1},
		{Size: 2, Assoc: 1, LineSize: 2}, // a 63-bit tag
		{Size: 2, Assoc: 2, LineSize: 1}, // a 64-bit tag
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %+v accepted", c)
		}
	}
}

func TestLookupInsert(t *testing.T) {
	c, err := New(small()) // 2 sets x 2 ways
	if err != nil {
		t.Fatal(err)
	}
	if c.Lookup(0x1000) {
		t.Fatal("hit in empty cache")
	}
	c.Insert(0x1000)
	if !c.Lookup(0x1000) {
		t.Fatal("miss after insert")
	}
	if !c.Lookup(0x1030) { // same line
		t.Fatal("same-line address missed")
	}
	if c.Lookup(0x1040) { // next line
		t.Fatal("adjacent line hit")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c, _ := New(small()) // sets=2: lines 0x000,0x080,... map to set 0
	// Three lines in set 0 (stride 128 = 2 sets * 64).
	c.Insert(0x0000)
	c.Insert(0x0080)
	c.Lookup(0x0000) // make 0x0080 LRU
	victim, dirty, evicted := c.Insert(0x0100)
	if !evicted || dirty {
		t.Fatalf("evicted=%v dirty=%v", evicted, dirty)
	}
	if victim != 0x0080 {
		t.Errorf("victim = %#x, want 0x0080", victim)
	}
	if c.Contains(0x0080) {
		t.Error("victim still present")
	}
	if !c.Contains(0x0000) || !c.Contains(0x0100) {
		t.Error("survivors missing")
	}
}

func TestDirtyVictimReported(t *testing.T) {
	c, _ := New(small())
	c.Insert(0x0000)
	c.SetDirty(0x0010)
	c.Insert(0x0080)
	_, dirty, evicted := c.Insert(0x0100) // evicts 0x0000 (LRU)
	if !evicted || !dirty {
		t.Errorf("dirty victim not reported: evicted=%v dirty=%v", evicted, dirty)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestInvalidate(t *testing.T) {
	c, _ := New(small())
	c.Insert(0x0000)
	c.SetDirty(0x0000)
	dirty, present := c.Invalidate(0x0000)
	if !present || !dirty {
		t.Errorf("invalidate: present=%v dirty=%v", present, dirty)
	}
	if _, present := c.Invalidate(0x0000); present {
		t.Error("double invalidate reported present")
	}
}

func TestContainsDoesNotTouchStats(t *testing.T) {
	c, _ := New(small())
	c.Contains(0x0)
	if s := c.Stats(); s.Hits+s.Misses != 0 {
		t.Error("Contains counted as access")
	}
}

// ---- hierarchy ----

func newHier(t *testing.T) (*Hierarchy, *bus.Bus) {
	t.Helper()
	h, err := NewHierarchy(DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := bus.New(bus.Config{Model: bus.Multiplexed, WidthBytes: 8, ReadWait: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h, b
}

// step advances the hierarchy+bus with a CPU:bus ratio of 1 (tests only
// care about event ordering, not exact latency here).
func step(h *Hierarchy, b *bus.Bus, n int) {
	for i := 0; i < n; i++ {
		h.TickCPU()
		b.Tick()
		h.TickBus(b)
	}
}

func TestHierarchyMissFillsBothLevels(t *testing.T) {
	h, b := newHier(t)
	done := false
	lat, hit, accepted := h.Load(0x1000, false, func() { done = true })
	if hit || !accepted || lat != 0 {
		t.Fatalf("expected miss: lat=%d hit=%v acc=%v", lat, hit, accepted)
	}
	step(h, b, 200)
	if !done {
		t.Fatal("fill callback never ran")
	}
	if !h.Present(0x1000, false) {
		t.Error("line not in L1D after fill")
	}
	if !h.L2().Contains(0x1000) {
		t.Error("line not in L2 after fill")
	}
	// Second access hits.
	lat, hit, _ = h.Load(0x1008, false, nil)
	if !hit || lat != h.L1D().Config().HitLatency {
		t.Errorf("expected L1 hit, lat=%d hit=%v", lat, hit)
	}
}

func TestHierarchyL2HitAvoidsBus(t *testing.T) {
	h, b := newHier(t)
	h.L2().Preload(0x2000)
	done := false
	h.Load(0x2000, false, func() { done = true })
	step(h, b, 50)
	if !done {
		t.Fatal("L2 hit never completed")
	}
	if b.Stats().Transactions != 0 {
		t.Error("L2 hit went to the bus")
	}
}

// TestSameCycleL2HitsFillOnce: three MSHRs whose L2 probes hit in the
// same cycle each fill L1 exactly once, all in that cycle. A fill
// removes its MSHR from the busy list, so a walk that does not account
// for the shift skips the next MSHR (its fill lands a cycle late) and
// fills the last one twice.
func TestSameCycleL2HitsFillOnce(t *testing.T) {
	h, b := newHier(t)
	lines := []uint64{0x2000, 0x2040, 0x2080}
	filled := make([]int, len(lines))
	for i, a := range lines {
		h.L2().Preload(a)
		h.Load(a, false, func() { filled[i]++ })
	}
	probe := DefaultHierConfig().L2Latency
	step(h, b, probe)
	if h.Stats().Fills != 0 {
		t.Fatalf("%d fills before the L2 latency elapsed", h.Stats().Fills)
	}
	step(h, b, 1)
	if got := h.Stats().Fills; got != uint64(len(lines)) || filled[0] != 1 || filled[1] != 1 || filled[2] != 1 {
		t.Errorf("after the probe cycle: %d fills, callbacks %v; want 3 fills, each callback once", got, filled)
	}
	step(h, b, 10)
	if got := h.Stats().Fills; got != uint64(len(lines)) || !h.Idle() {
		t.Errorf("%d fills in all, idle=%v; want 3 and idle", got, h.Idle())
	}
	for _, a := range lines {
		if !h.Present(a, false) {
			t.Errorf("line %#x not in L1D", a)
		}
	}
}

func TestHierarchyMergesMissesToSameLine(t *testing.T) {
	h, b := newHier(t)
	var n int
	h.Load(0x3000, false, func() { n++ })
	h.Load(0x3008, false, func() { n++ })
	step(h, b, 200)
	if n != 2 {
		t.Fatalf("callbacks = %d, want 2", n)
	}
	if got := b.Stats().Transactions; got != 1 {
		t.Errorf("bus transactions = %d, want 1 (merged)", got)
	}
}

func TestHierarchyMSHRExhaustion(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.MSHRs = 2
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, acc := h.Load(0x1000, false, nil); !acc {
		t.Fatal("first miss rejected")
	}
	if _, _, acc := h.Load(0x2000, false, nil); !acc {
		t.Fatal("second miss rejected")
	}
	if _, _, acc := h.Load(0x3000, false, nil); acc {
		t.Error("third miss accepted with 2 MSHRs")
	}
}

func TestInstructionAndDataSeparate(t *testing.T) {
	h, b := newHier(t)
	h.Load(0x4000, true, nil) // instruction fetch
	step(h, b, 200)
	if !h.Present(0x4000, true) {
		t.Error("line not in L1I")
	}
	if h.Present(0x4000, false) {
		t.Error("fetch polluted L1D")
	}
}

func TestStoreHitDrains(t *testing.T) {
	h, b := newHier(t)
	h.Warm(0x5000, false)
	if !h.Store(0x5000) {
		t.Fatal("store rejected")
	}
	if h.StoreBufferEmpty() {
		t.Fatal("write buffer empty immediately")
	}
	step(h, b, 5)
	if !h.StoreBufferEmpty() {
		t.Fatal("write buffer did not drain on hit")
	}
}

func TestStoreMissAllocates(t *testing.T) {
	h, b := newHier(t)
	h.Store(0x6000)
	step(h, b, 300)
	if !h.StoreBufferEmpty() {
		t.Fatal("store miss never completed")
	}
	if !h.Present(0x6000, false) {
		t.Error("write-allocate did not fill L1D")
	}
}

func TestWriteBufferFullRejects(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.WriteBuffer = 2
	h, _ := NewHierarchy(cfg)
	h.Store(0x1000)
	h.Store(0x2000)
	if h.Store(0x3000) {
		t.Error("store accepted into full write buffer")
	}
	if h.Stats().StoreStalls != 1 {
		t.Errorf("StoreStalls = %d", h.Stats().StoreStalls)
	}
}

func TestDirtyL2EvictionGoesToBus(t *testing.T) {
	cfg := DefaultHierConfig()
	// Tiny L2: 1 set x 1 way so any second line evicts the first.
	cfg.L2 = Config{Size: 64, Assoc: 1, LineSize: 64, HitLatency: 2}
	cfg.L1I = Config{Size: 64, Assoc: 1, LineSize: 64, HitLatency: 1}
	cfg.L1D = Config{Size: 64, Assoc: 1, LineSize: 64, HitLatency: 1}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := bus.New(bus.Config{Model: bus.Multiplexed, WidthBytes: 8, ReadWait: 2}, nil)

	// Fill line A and dirty it in L2 via L1 eviction path: simpler, dirty
	// it directly in L2 after a fill.
	h.Load(0x0000, false, nil)
	step(h, b, 100)
	h.L2().SetDirty(0x0000)
	// Miss line B evicts A from L2 (dirty) → writeback transaction.
	h.Load(0x1000, false, nil)
	step(h, b, 200)
	s := b.Stats()
	if s.Writes != 1 {
		t.Errorf("bus writes = %d, want 1 writeback", s.Writes)
	}
	if h.Stats().Writebacks != 1 {
		t.Errorf("hierarchy writebacks = %d", h.Stats().Writebacks)
	}
}

func TestHierConfigValidate(t *testing.T) {
	bad := DefaultHierConfig()
	bad.L1D.LineSize = 32
	if err := bad.Validate(); err == nil {
		t.Error("mismatched line sizes accepted")
	}
	bad2 := DefaultHierConfig()
	bad2.MSHRs = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero MSHRs accepted")
	}
}

func TestIdle(t *testing.T) {
	h, b := newHier(t)
	if !h.Idle() {
		t.Fatal("fresh hierarchy not idle")
	}
	h.Load(0x1000, false, nil)
	if h.Idle() {
		t.Fatal("hierarchy idle with outstanding miss")
	}
	step(h, b, 300)
	if !h.Idle() {
		t.Fatal("hierarchy not idle after drain")
	}
}

// Property: the most recently used line in a set is never the one
// evicted.
func TestLRUNeverEvictsMRU(t *testing.T) {
	c, err := New(Config{Size: 512, Assoc: 4, LineSize: 64, HitLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var lastTouched uint64
	haveTouch := false
	for i := 0; i < 5000; i++ {
		// Addresses in one set (stride = sets*line = 2*64).
		addr := uint64(rng.Intn(16)) * 128
		if rng.Intn(2) == 0 {
			if c.Lookup(addr) {
				lastTouched = addr &^ 63
				haveTouch = true
			}
		} else {
			victim, _, evicted := c.Insert(addr)
			if evicted && haveTouch && victim == lastTouched {
				t.Fatalf("step %d: evicted the MRU line %#x", i, victim)
			}
			lastTouched = addr &^ 63
			haveTouch = true
		}
	}
}

// TestIndexMatchesDivision: index's shift-and-mask split of an address
// gives the set and tag of the division formula, and the set's ways sit
// in slot set%chunkSets of chunk set/chunkSets, for random addresses in
// every geometry the machine is built with: the default hierarchy at the
// figure sweeps' line sizes (figures 3d-3f), plus the smallest caches the
// tests use. A chunk no line has been filled into yields no ways, and
// filling one allocates exactly that chunk.
func TestIndexMatchesDivision(t *testing.T) {
	var geoms []Config
	for _, ls := range []int{32, 64, 128} {
		h := DefaultHierConfig()
		for _, c := range []Config{h.L1I, h.L1D, h.L2} {
			c.LineSize = ls
			geoms = append(geoms, c)
		}
	}
	geoms = append(geoms, small(),
		Config{Size: 64, Assoc: 1, LineSize: 64},
		Config{Size: 512, Assoc: 4, LineSize: 64},
		Config{Size: 4, Assoc: 1, LineSize: 4})
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range geoms {
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		nsets := uint64(cfg.Size / (cfg.LineSize * cfg.Assoc))
		chunkLen := int(min(nsets, chunkSets)) * cfg.Assoc
		if want := int((nsets + chunkSets - 1) / chunkSets); len(c.chunks) != want {
			t.Fatalf("%+v: %d chunks, want %d", cfg, len(c.chunks), want)
		}
		for i := 0; i < 10_000; i++ {
			addr := rng.Uint64()
			if i%2 == 0 {
				addr >>= rng.Intn(64) // small addresses too
			}
			lineAddr := addr / uint64(cfg.LineSize)
			wantSet, wantTag := lineAddr%nsets, lineAddr/nsets
			if i%4 == 0 {
				before := filledChunks(c)
				if c.chunks[wantSet/chunkSets] == nil {
					before++
				}
				if c.Preload(addr); filledChunks(c) != before {
					t.Fatalf("%+v: Preload(%#x) allocated chunks other than set %d's", cfg, addr, wantSet)
				}
			}
			ways, set, tag := c.index(addr)
			if set != wantSet || tag != wantTag {
				t.Fatalf("%+v: index(%#x) = set %d tag %#x, want set %d tag %#x",
					cfg, addr, set, tag, wantSet, wantTag)
			}
			chunk := c.chunks[wantSet/chunkSets]
			if chunk == nil {
				if ways != nil {
					t.Fatalf("%+v: index(%#x) in an unfilled chunk returned %d ways", cfg, addr, len(ways))
				}
				continue
			}
			if len(chunk) != chunkLen || len(ways) != cfg.Assoc ||
				&ways[0] != &chunk[int(wantSet%chunkSets)*cfg.Assoc] {
				t.Fatalf("%+v: index(%#x) returned %d ways not at slot %d of a %d-line chunk %d",
					cfg, addr, len(ways), wantSet%chunkSets, len(chunk), wantSet/chunkSets)
			}
		}
	}
}

func filledChunks(c *Cache) int {
	n := 0
	for _, ch := range c.chunks {
		if ch != nil {
			n++
		}
	}
	return n
}

// TestWidestTagsKeepFlags: the tag of the top line of the address space
// fills every bit below the valid and dirty flags, and neither flag
// aliases a tag bit.
func TestWidestTagsKeepFlags(t *testing.T) {
	c, err := New(Config{Size: 4, Assoc: 2, LineSize: 2}) // 1 set of 2-byte lines: 63-bit tags
	if err == nil {
		t.Fatalf("1 set of 2-byte lines accepted: %+v", c.Config())
	}
	c, err = New(Config{Size: 8, Assoc: 2, LineSize: 2}) // 2 sets of 2-byte lines: 62-bit tags
	if err != nil {
		t.Fatal(err)
	}
	top := ^uint64(0)
	below := top - 4 // same set, tag one less
	c.Insert(top)
	if !c.Contains(top) || c.Contains(below) {
		t.Fatalf("after inserting %#x: contains it %v, contains %#x %v", top, c.Contains(top), below, c.Contains(below))
	}
	c.SetDirty(top)
	c.Insert(below)
	if victim, dirty, evicted := c.Insert(0x0); evicted || dirty || victim != 0 {
		t.Fatalf("inserting into set 0 evicted %#x (dirty %v)", victim, dirty)
	}
	if victim, dirty, evicted := c.Insert(top - 8); !evicted || !dirty || victim != top&^1 {
		t.Fatalf("third line in set 1 evicted %#x (dirty %v, evicted %v), want the dirty line %#x",
			victim, dirty, evicted, top&^1)
	}
}

// flatCache is the reference model of Cache: the tag array as one flat
// slice, all of it allocated up front, with the set and tag split by
// division.
type flatCache struct {
	assoc, lineSize, nsets uint64
	lines                  []line
	clock                  uint64
	stats                  Stats
}

func newFlat(cfg Config) *flatCache {
	nsets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	return &flatCache{
		assoc: uint64(cfg.Assoc), lineSize: uint64(cfg.LineSize), nsets: uint64(nsets),
		lines: make([]line, nsets*cfg.Assoc),
	}
}

func (f *flatCache) index(addr uint64) ([]line, uint64, uint64) {
	lineAddr := addr / f.lineSize
	set := lineAddr % f.nsets
	return f.lines[set*f.assoc : (set+1)*f.assoc], set, lineAddr / f.nsets
}

func (f *flatCache) find(ways []line, tag uint64) *line {
	for i := range ways {
		if ways[i].holds(tag) {
			return &ways[i]
		}
	}
	return nil
}

func (f *flatCache) Lookup(addr uint64) bool {
	ways, _, tag := f.index(addr)
	f.clock++
	if l := f.find(ways, tag); l != nil {
		l.used = f.clock
		f.stats.Hits++
		return true
	}
	f.stats.Misses++
	return false
}

func (f *flatCache) Contains(addr uint64) bool {
	ways, _, tag := f.index(addr)
	return f.find(ways, tag) != nil
}

// Insert replaces the last invalid way, or else the least recently used.
func (f *flatCache) Insert(addr uint64) (uint64, bool, bool) {
	ways, set, tag := f.index(addr)
	f.clock++
	if l := f.find(ways, tag); l != nil {
		l.used = f.clock
		return 0, false, false
	}
	victim := -1
	for i := range ways {
		if !ways[i].valid() {
			victim = i
		}
	}
	if victim < 0 {
		victim = 0
		for i := range ways {
			if ways[i].used < ways[victim].used {
				victim = i
			}
		}
	}
	v := &ways[victim]
	var victimAddr uint64
	evicted, dirty := v.valid(), v.valid() && v.dirty()
	if evicted {
		victimAddr = (v.tag()*f.nsets + set) * f.lineSize
		f.stats.Evictions++
		if dirty {
			f.stats.Writebacks++
		}
	}
	*v = line{key: tag | validBit, used: f.clock}
	return victimAddr, dirty, evicted
}

func (f *flatCache) SetDirty(addr uint64) {
	ways, _, tag := f.index(addr)
	if l := f.find(ways, tag); l != nil {
		l.key |= dirtyBit
	}
}

func (f *flatCache) Invalidate(addr uint64) (bool, bool) {
	ways, _, tag := f.index(addr)
	if l := f.find(ways, tag); l != nil {
		l.key &^= validBit
		return l.dirty(), true
	}
	return false, false
}

// Preload replaces the first invalid way, or else way 0.
func (f *flatCache) Preload(addr uint64) {
	ways, _, tag := f.index(addr)
	f.clock++
	if f.find(ways, tag) != nil {
		return
	}
	v := &ways[0]
	for i := range ways {
		if !ways[i].valid() {
			v = &ways[i]
			break
		}
	}
	*v = line{key: tag | validBit, used: f.clock}
}

// sameArrays reports the first set where c's tag array differs from the
// model's: a set in a chunk never filled must be all zero in the model.
func sameArrays(c *Cache, f *flatCache) (uint64, bool) {
	for set := uint64(0); set < f.nsets; set++ {
		want := f.lines[set*f.assoc : (set+1)*f.assoc]
		var got []line
		if chunk := c.chunks[set/chunkSets]; chunk != nil {
			base := (set % chunkSets) * f.assoc
			got = chunk[base : base+f.assoc]
		}
		for i := range want {
			var l line
			if got != nil {
				l = got[i]
			}
			if l != want[i] {
				return set, false
			}
		}
	}
	return 0, true
}

// TestChunkedMatchesFlat drives Cache and the flat reference model with
// the same random sequences of every operation and compares each return
// value, the statistics and the LRU clock after every step, and the whole
// tag array every 64 steps and at the end. The geometries cover fewer
// sets than one chunk, a direct-mapped cache, the 62-bit tags of two
// 2-byte sets, and the default L1 and L2. Addresses come mostly from a
// few sets spread over the chunks with a few more tags than ways, so
// lines hit, conflict and are evicted; the rest are random, and the
// widest geometry also draws from the top of the address space.
func TestChunkedMatchesFlat(t *testing.T) {
	h := DefaultHierConfig()
	geoms := []Config{
		small(), // 2 sets
		{Size: 16 * 4 * 64, Assoc: 4, LineSize: 64},  // 16 sets
		{Size: 64 << 10, Assoc: 1, LineSize: 64},     // direct-mapped, 1024 sets
		{Size: 8, Assoc: 2, LineSize: 2},             // 2 sets, 62-bit tags
		{Size: 3 * 128 * 32, Assoc: 3, LineSize: 32}, // 3 ways
		h.L1D, h.L2,
	}
	for _, cfg := range geoms {
		nsets := uint64(cfg.Size / (cfg.LineSize * cfg.Assoc))
		ls := uint64(cfg.LineSize)
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			sets := make([]uint64, 6)
			for i := range sets {
				sets[i] = uint64(rng.Int63n(int64(nsets)))
			}
			ntags := uint64(cfg.Assoc + 2)
			addr := func() uint64 {
				switch r := rng.Intn(16); {
				case r == 0:
					return rng.Uint64()
				case r == 1:
					return ^uint64(0) - uint64(rng.Intn(4*cfg.Size))
				default:
					tag := uint64(rng.Int63n(int64(ntags)))
					set := sets[rng.Intn(len(sets))]
					return (tag*nsets+set)*ls + uint64(rng.Int63n(int64(ls)))
				}
			}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			f := newFlat(cfg)
			for step := 0; step < 2000; step++ {
				a := addr()
				var op string
				switch rng.Intn(8) {
				case 0, 1:
					op = "Lookup"
					if got, want := c.Lookup(a), f.Lookup(a); got != want {
						t.Fatalf("%+v seed %d step %d: Lookup(%#x) = %v, want %v", cfg, seed, step, a, got, want)
					}
				case 2:
					op = "Contains"
					if got, want := c.Contains(a), f.Contains(a); got != want {
						t.Fatalf("%+v seed %d step %d: Contains(%#x) = %v, want %v", cfg, seed, step, a, got, want)
					}
				case 3, 4:
					op = "Insert"
					gv, gd, ge := c.Insert(a)
					wv, wd, we := f.Insert(a)
					if gv != wv || gd != wd || ge != we {
						t.Fatalf("%+v seed %d step %d: Insert(%#x) = (%#x, %v, %v), want (%#x, %v, %v)",
							cfg, seed, step, a, gv, gd, ge, wv, wd, we)
					}
				case 5:
					op = "SetDirty"
					c.SetDirty(a)
					f.SetDirty(a)
				case 6:
					op = "Invalidate"
					gd, gp := c.Invalidate(a)
					wd, wp := f.Invalidate(a)
					if gd != wd || gp != wp {
						t.Fatalf("%+v seed %d step %d: Invalidate(%#x) = (%v, %v), want (%v, %v)",
							cfg, seed, step, a, gd, gp, wd, wp)
					}
				case 7:
					op = "Preload"
					c.Preload(a)
					f.Preload(a)
				}
				if c.Stats() != f.stats || c.clock != f.clock {
					t.Fatalf("%+v seed %d step %d: after %s(%#x) stats %+v clock %d, want %+v clock %d",
						cfg, seed, step, op, a, c.Stats(), c.clock, f.stats, f.clock)
				}
				if step%64 == 63 {
					if set, ok := sameArrays(c, f); !ok {
						t.Fatalf("%+v seed %d step %d: set %d differs from the model", cfg, seed, step, set)
					}
				}
			}
			if set, ok := sameArrays(c, f); !ok {
				t.Fatalf("%+v seed %d: set %d differs from the model", cfg, seed, set)
			}
		}
	}
}
