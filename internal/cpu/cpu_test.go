package cpu

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"csbsim/internal/asm"
	"csbsim/internal/bus"
	"csbsim/internal/cache"
	"csbsim/internal/core"
	"csbsim/internal/isa"
	"csbsim/internal/mem"
	"csbsim/internal/uncbuf"
)

// rig is a minimal machine around the CPU for white-box tests (the full
// machine lives in internal/sim; duplicating the wiring here avoids an
// import cycle and keeps these tests close to the pipeline internals).
type rig struct {
	c     *CPU
	h     *cache.Hierarchy
	u     *uncbuf.Buffer
	s     *core.CSB
	ram   *mem.Memory
	b     *bus.Bus
	pt    *mem.PageTable
	ratio int
	cycle uint64
}

func newRig(t *testing.T) *rig {
	t.Helper()
	ram := mem.NewMemory()
	rt := mem.NewRouter(ram)
	b, err := bus.New(bus.DefaultConfig(), rt)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cache.NewHierarchy(cache.DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	u, err := uncbuf.New(uncbuf.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(DefaultConfig(), h, u, s, ram)
	if err != nil {
		t.Fatal(err)
	}
	pt := mem.NewPageTable()
	c.SetPageTable(pt)
	return &rig{c: c, h: h, u: u, s: s, ram: ram, b: b, pt: pt, ratio: 6}
}

func (r *rig) load(t *testing.T, src string) *asm.Program {
	t.Helper()
	p, err := asm.Assemble("cpu_test.s", src)
	if err != nil {
		t.Fatal(err)
	}
	base, data, err := p.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	r.ram.Write(base, data)
	r.pt.MapRange(base, base, uint64(len(data))+1<<20, mem.KindCached, true)
	r.c.Start(p.Entry)
	return p
}

func (r *rig) tick() {
	r.u.TickCPU()
	r.c.Tick()
	r.h.TickCPU()
	r.cycle++
	if r.cycle%uint64(r.ratio) == 0 {
		r.b.Tick()
		r.s.TickBus(r.b)
		r.u.TickBus(r.b)
		r.h.TickBus(r.b)
	}
}

func (r *rig) run(t *testing.T, max int) {
	t.Helper()
	r.runWatched(t, max, nil, nil)
}

// runWatched is run with hooks around every cycle: before runs ahead of
// each Tick and after behind it, once CheckQueues has passed.
func (r *rig) runWatched(t *testing.T, max int, before, after func()) {
	t.Helper()
	for i := 0; i < max; i++ {
		if r.c.Halted() {
			if err := r.c.Err(); err != nil {
				t.Fatal(err)
			}
			return
		}
		if before != nil {
			before()
		}
		r.tick()
		if err := r.c.CheckQueues(); err != nil {
			t.Fatal(err)
		}
		if after != nil {
			after()
		}
	}
	t.Fatalf("cycle limit %d reached at pc %#x", max, r.c.State().PC)
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.FetchWidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero fetch width accepted")
	}
	bad2 := DefaultConfig()
	bad2.PredictorSize = 1000 // not a power of two
	if err := bad2.Validate(); err == nil {
		t.Error("non-power-of-two predictor accepted")
	}
}

// TestConfigValidateLatencies checks that every execution latency must be
// positive (a zero or negative one used to behave as 1 cycle silently),
// while a zero TLB walk latency stays legal: the walk is then free.
func TestConfigValidateLatencies(t *testing.T) {
	cases := []struct {
		name string
		set  func(*Config, int)
	}{
		{"IntLatency", func(c *Config, v int) { c.IntLatency = v }},
		{"MulLatency", func(c *Config, v int) { c.MulLatency = v }},
		{"FPLatency", func(c *Config, v int) { c.FPLatency = v }},
		{"FPDivLatency", func(c *Config, v int) { c.FPDivLatency = v }},
	}
	for _, tc := range cases {
		for _, v := range []int{0, -1} {
			cfg := DefaultConfig()
			tc.set(&cfg, v)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.name) {
				t.Errorf("%s = %d: err = %v, want one naming %s", tc.name, v, err, tc.name)
			}
		}
		cfg := DefaultConfig()
		tc.set(&cfg, 1)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s = 1 rejected: %v", tc.name, err)
		}
	}
	cfg := DefaultConfig()
	cfg.TLBWalkLatency = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("TLBWalkLatency = 0 rejected: %v", err)
	}
	cfg.TLBWalkLatency = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative TLBWalkLatency accepted")
	}
}

func TestPredictorSaturatingCounters(t *testing.T) {
	p := newPredictor(16)
	pc := uint64(0x1000)
	if p.predict(pc) {
		t.Fatal("fresh predictor should predict not-taken (weakly)")
	}
	p.update(pc, true)
	if !p.predict(pc) {
		t.Fatal("one taken should flip a weakly-not-taken counter")
	}
	p.update(pc, true)
	p.update(pc, true) // saturate
	p.update(pc, false)
	if !p.predict(pc) {
		t.Fatal("single not-taken should not flip a saturated counter")
	}
	p.update(pc, false)
	p.update(pc, false)
	if p.predict(pc) {
		t.Fatal("repeated not-taken should flip the counter")
	}
}

func TestPredictorIndexesDistinctPCs(t *testing.T) {
	p := newPredictor(1024)
	p.update(0x1000, true)
	p.update(0x1000, true)
	if p.predict(0x1004) {
		t.Error("adjacent PC shares a counter it should not")
	}
}

func TestStatsIPC(t *testing.T) {
	s := Stats{Cycles: 100, Retired: 250}
	if got := s.IPC(); got != 2.5 {
		t.Errorf("IPC = %v", got)
	}
	if (Stats{}).IPC() != 0 {
		t.Error("zero-cycle IPC should be 0")
	}
}

func TestNeedsRetireExec(t *testing.T) {
	cases := []struct {
		u    uop
		want bool
	}{
		{uop{inst: isa.Inst{Op: isa.OpMEMBAR}}, true},
		{uop{inst: isa.Inst{Op: isa.OpSWAP}}, true},
		{uop{inst: isa.Inst{Op: isa.OpSWAP}, kind: mem.KindCached}, true},
		{uop{inst: isa.Inst{Op: isa.OpHALT}}, true},
		{uop{inst: isa.Inst{Op: isa.OpRDPR}}, true},
		{uop{inst: isa.Inst{Op: isa.OpADD}}, false},
		{uop{inst: isa.Inst{Op: isa.OpLDX}, kind: mem.KindCached}, false},
		{uop{inst: isa.Inst{Op: isa.OpLDX}, kind: mem.KindUncached}, true},
		{uop{inst: isa.Inst{Op: isa.OpSTX}, kind: mem.KindCombining}, true},
	}
	for _, c := range cases {
		c.u.fl = instFlags(&c.u.inst)
		if got := c.u.needsRetireExec(); got != c.want {
			t.Errorf("needsRetireExec(%s, %v) = %v, want %v",
				c.u.inst.Op.Name(), c.u.kind, got, c.want)
		}
	}
}

func TestLeBytesRoundTrip(t *testing.T) {
	var c CPU
	f := func(v uint64) bool {
		return leUint(c.leBytes(v, 8)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if leUint(c.leBytes(0x1234, 2)) != 0x1234 {
		t.Error("2-byte round trip failed")
	}
}

// The paper's central ordering invariant: uncached stores are issued only
// at/after retirement, never speculatively. A wrong-path uncached store
// must never reach the uncached buffer or the bus.
func TestWrongPathUncachedStoreNeverIssues(t *testing.T) {
	r := newRig(t)
	r.pt.MapRange(0x4000_0000, 0x4000_0000, mem.PageSize, mem.KindUncached, true)
	r.load(t, `
	set 0x40000000, %o1
	set 0xbad, %g2
	mov 1, %g1
	cmp %g1, 1
	bz skip                 ! taken, but a cold predictor says not-taken
	stx %g2, [%o1]          ! wrong path: must never issue
	stx %g2, [%o1+8]
skip:
	membar
	halt
`)
	r.run(t, 100000)
	st := r.c.Stats()
	if st.Mispredicts == 0 {
		t.Fatal("test premise broken: branch did not mispredict")
	}
	if st.UncachedStores != 0 {
		t.Fatalf("%d wrong-path uncached stores issued", st.UncachedStores)
	}
	if got := r.b.Stats().Writes; got != 0 {
		t.Fatalf("%d bus writes from the wrong path", got)
	}
	if got := r.ram.ReadUint(0x4000_0000, 8); got != 0 {
		t.Fatalf("wrong-path store reached memory: %#x", got)
	}
}

// Wrong-path CSB stores must not disturb the conditional store buffer
// either (they would corrupt the hit counter).
func TestWrongPathCombiningStoreNeverIssues(t *testing.T) {
	r := newRig(t)
	r.pt.MapRange(0x4000_0000, 0x4000_0000, mem.PageSize, mem.KindCombining, true)
	r.load(t, `
	set 0x40000000, %o1
	mov 1, %g1
	cmp %g1, 1
	bz skip
	stx %g2, [%o1]          ! wrong path combining store
skip:
	halt
`)
	r.run(t, 100000)
	if got := r.s.Stats().Stores; got != 0 {
		t.Fatalf("CSB saw %d wrong-path stores", got)
	}
	if r.s.HitCount() != 0 {
		t.Fatal("CSB hit counter disturbed by wrong path")
	}
}

// Interrupt vectoring through IVEC and return via IRET, entirely in
// simulated code (the Go kernel uses the hook path instead; this tests the
// architectural path).
func TestSoftwareInterruptHandler(t *testing.T) {
	r := newRig(t)
	r.load(t, `
	set handler, %g1
	wrpr %g1, %ivec
	mov 1, %g1
	wrpr %g1, %status       ! enable interrupts
	clr %g2                 ! interrupt counter
	clr %g3
loop:
	add %g3, 1, %g3
	cmp %g3, 2000
	bl loop
	halt

handler:
	add %g2, 1, %g2         ! count the interrupt
	iret
`)
	fired := false
	for i := 0; i < 100000 && !r.c.Halted(); i++ {
		if i == 3000 && !fired {
			r.c.Interrupt(uint64(isa.CauseTimer))
			fired = true
		}
		r.tick()
	}
	if !r.c.Halted() {
		t.Fatal("program did not halt")
	}
	if err := r.c.Err(); err != nil {
		t.Fatal(err)
	}
	st := r.c.State()
	if st.R[2] != 1 {
		t.Errorf("handler ran %d times, want 1", st.R[2])
	}
	if st.R[3] != 2000 {
		t.Errorf("main loop result %d, want 2000 (correct resumption)", st.R[3])
	}
	if r.c.Stats().Interrupts != 1 {
		t.Errorf("interrupts = %d", r.c.Stats().Interrupts)
	}
}

func TestInterruptIgnoredWhenDisabled(t *testing.T) {
	r := newRig(t)
	r.load(t, `
	clr %g3
loop:
	add %g3, 1, %g3
	cmp %g3, 500
	bl loop
	halt
`)
	r.c.Interrupt(uint64(isa.CauseTimer)) // status bit 0 is clear
	r.run(t, 100000)
	if r.c.Stats().Interrupts != 0 {
		t.Error("interrupt taken while disabled")
	}
	if r.c.State().R[3] != 500 {
		t.Error("program corrupted")
	}
}

func TestTrapVectorsWhenNoHook(t *testing.T) {
	r := newRig(t)
	r.c.TrapHook = nil
	r.load(t, `
	set handler, %g1
	wrpr %g1, %ivec
	trap 5
	mov 99, %g4             ! skipped: trap vectors away
	halt
handler:
	rdpr %cause, %g2
	mov 1, %g3
	halt
`)
	r.run(t, 100000)
	st := r.c.State()
	if st.R[3] != 1 {
		t.Fatal("handler did not run")
	}
	wantCause := uint64(isa.CauseSoftware) | 5<<8
	if st.R[2] != wantCause {
		t.Errorf("cause = %#x, want %#x", st.R[2], wantCause)
	}
}

func TestTrapHaltsWithoutVector(t *testing.T) {
	r := newRig(t)
	r.c.TrapHook = nil
	r.load(t, "trap 9\nhalt\n")
	for i := 0; i < 100000 && !r.c.Halted(); i++ {
		r.tick()
	}
	if err := r.c.Err(); err == nil || !strings.Contains(err.Error(), "trap") {
		t.Errorf("err = %v", err)
	}
}

func TestRestoreStateClearsHalt(t *testing.T) {
	r := newRig(t)
	r.load(t, "mov 7, %g1\nhalt\n")
	r.run(t, 10000)
	if !r.c.Halted() {
		t.Fatal("not halted")
	}
	st := r.c.SaveState()
	st.PC = 0 // irrelevant; just verify halt clears
	r.c.RestoreState(st)
	if r.c.Halted() {
		t.Error("RestoreState did not clear halt")
	}
}

func TestPipelineDrainsAtHalt(t *testing.T) {
	r := newRig(t)
	r.load(t, `
	mov 3, %g1
	mov 4, %g2
	add %g1, %g2, %g3
	halt
`)
	r.run(t, 10000)
	if r.c.branchCount != 0 || r.c.memCount != 0 {
		t.Errorf("leaked counters: branches %d mem %d", r.c.branchCount, r.c.memCount)
	}
	if r.c.State().R[3] != 7 {
		t.Error("result wrong")
	}
}

// Back-to-back conditional flushes on a single-entry CSB stall the second
// sequence until the first line is handed to the system interface.
func TestCSBSingleEntryBackToBackStalls(t *testing.T) {
	r := newRig(t)
	r.pt.MapRange(0x4000_0000, 0x4000_0000, mem.PageSize, mem.KindCombining, true)
	r.load(t, `
	set 0x40000000, %o1
	mov 7, %g1
	! line 1
	mov 1, %l4
	stx %g1, [%o1]
	swap [%o1], %l4
	! line 2, immediately after
	mov 1, %l4
	stx %g1, [%o1+64]
	swap [%o1+64], %l4
	membar
	halt
`)
	r.run(t, 100000)
	s := r.s.Stats()
	if s.FlushOK != 2 {
		t.Fatalf("flushes = %d, want 2", s.FlushOK)
	}
	if s.StallBusy == 0 {
		t.Error("expected stalls between back-to-back sequences (single entry)")
	}
}

func TestRDPRCycleCounterAdvances(t *testing.T) {
	r := newRig(t)
	r.load(t, `
	rdpr %cycle, %g1
	mov 100, %g3
spin:	subcc %g3, 1, %g3
	bnz spin
	rdpr %cycle, %g2
	halt
`)
	r.run(t, 100000)
	st := r.c.State()
	if st.R[2] <= st.R[1] {
		t.Errorf("cycle counter did not advance: %d -> %d", st.R[1], st.R[2])
	}
}

func TestPIDChangeHookFires(t *testing.T) {
	r := newRig(t)
	var got []uint8
	r.c.PIDChanged = func(pid uint8) { got = append(got, pid) }
	r.load(t, `
	mov 5, %g1
	wrpr %g1, %pid
	mov 9, %g1
	wrpr %g1, %pid
	halt
`)
	r.run(t, 10000)
	if len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Errorf("PID hook calls = %v", got)
	}
	if r.c.State().PID() != 9 {
		t.Errorf("PID = %d", r.c.State().PID())
	}
}

func TestFaultedStoreHalts(t *testing.T) {
	r := newRig(t)
	r.load(t, `
	set 0x70000000, %o1     ! unmapped
	stx %g1, [%o1]
	halt
`)
	for i := 0; i < 100000 && !r.c.Halted(); i++ {
		r.tick()
	}
	if err := r.c.Err(); err == nil || !strings.Contains(err.Error(), "fault") {
		t.Errorf("err = %v", err)
	}
}

func TestReadOnlyPageFaultsOnStore(t *testing.T) {
	r := newRig(t)
	r.pt.MapRange(0x5000_0000, 0x5000_0000, mem.PageSize, mem.KindCached, false)
	r.load(t, `
	set 0x50000000, %o1
	ldx [%o1], %g1          ! reads are fine
	stx %g1, [%o1]          ! write to read-only page
	halt
`)
	for i := 0; i < 100000 && !r.c.Halted(); i++ {
		r.tick()
	}
	if err := r.c.Err(); err == nil {
		t.Error("store to read-only page did not fault")
	}
}

func TestMembarWaitsForWriteBuffer(t *testing.T) {
	r := newRig(t)
	r.load(t, `
	set 0x20000, %o1
	mov 1, %g1
	stx %g1, [%o1]
	membar
	halt
`)
	r.run(t, 100000)
	if !r.h.StoreBufferEmpty() {
		t.Error("membar retired with a non-empty write buffer")
	}
	if r.c.Stats().Membars != 1 {
		t.Error("membar not counted")
	}
}

func TestFourWideRetire(t *testing.T) {
	// 16 independent adds + halt should retire in well under 16 cycles
	// of retire time once the pipeline is warm (4-wide retire).
	r := newRig(t)
	var src strings.Builder
	for i := 1; i <= 4; i++ {
		for j := 0; j < 4; j++ {
			src.WriteString("\tadd %g1, 1, %g" + string(rune('1'+i)) + "\n")
		}
	}
	src.WriteString("\thalt\n")
	p := r.load(t, src.String())
	base, data, _ := p.Bytes()
	for a := base &^ 63; a < base+uint64(len(data)); a += 64 {
		r.h.Warm(a, true)
	}
	r.run(t, 1000)
	if got := r.c.Stats().Retired; got != 17 {
		t.Errorf("retired = %d, want 17", got)
	}
	// 17 instructions, 4-wide: lower bound ~5 retire cycles + pipeline
	// fill. Anything under 20 cycles shows real superscalar retirement.
	if r.c.Stats().Cycles > 25 {
		t.Errorf("took %d cycles for 17 independent instructions", r.c.Stats().Cycles)
	}
}

// Swap to plain uncached space is a blocking bus read followed by a bus
// write, both strongly ordered — the device sees exactly one read and one
// write.
func TestUncachedSwapRMW(t *testing.T) {
	r := newRig(t)
	r.pt.MapRange(0x4000_0000, 0x4000_0000, mem.PageSize, mem.KindUncached, true)
	r.ram.WriteUint(0x4000_0000, 8, 77) // device/memory old value
	p := r.load(t, `
	set 0x40000000, %o1
	mov 88, %l4
	swap [%o1], %l4
	membar
	halt
`)
	// Warm the code so I-cache fills don't pollute the bus counters.
	base, data, _ := p.Bytes()
	for a := base &^ 63; a < base+uint64(len(data)); a += 64 {
		r.h.Warm(a, true)
	}
	r.run(t, 1_000_000)
	if got := r.c.State().R[20]; got != 77 {
		t.Errorf("swap returned %d, want old value 77", got)
	}
	if got := r.ram.ReadUint(0x4000_0000, 8); got != 88 {
		t.Errorf("memory = %d, want 88", got)
	}
	s := r.b.Stats()
	if s.Reads != 1 || s.Writes != 1 {
		t.Errorf("bus reads/writes = %d/%d, want 1/1", s.Reads, s.Writes)
	}
	if r.c.Stats().Swaps != 1 {
		t.Errorf("swaps = %d", r.c.Stats().Swaps)
	}
}

func TestFlushPipelineRestartsAtCommittedPC(t *testing.T) {
	r := newRig(t)
	r.load(t, `
	mov 5, %g1
loop:	add %g2, 1, %g2
	cmp %g2, 8000
	bl loop
	halt
`)
	// Run a while, then flush mid-flight; execution must resume correctly.
	for i := 0; i < 500; i++ {
		r.tick()
	}
	r.c.FlushPipeline()
	r.run(t, 1_000_000)
	if got := r.c.State().R[2]; got != 8000 {
		t.Errorf("g2 = %d, want 8000 (flush must not lose committed state)", got)
	}
}

// Cached swap at the head of the ROB: the figure-5 lock primitive.
func TestCachedSwapLockPrimitive(t *testing.T) {
	r := newRig(t)
	r.load(t, `
	.org 0x1000
lock:	.dword 0
	.entry main
main:
	set lock, %o2
	mov 1, %l4
	swap [%o2], %l4         ! acquire: old 0 → got it
	mov 2, %l5
	swap [%o2], %l5         ! second swap sees 1
	halt
`)
	r.run(t, 1_000_000)
	st := r.c.State()
	if st.R[20] != 0 {
		t.Errorf("first swap = %d, want 0", st.R[20])
	}
	if st.R[21] != 1 {
		t.Errorf("second swap = %d, want 1", st.R[21])
	}
	if got := r.ram.ReadUint(0x1000, 8); got != 2 {
		t.Errorf("lock value = %d, want 2", got)
	}
	if r.c.Stats().Swaps != 2 {
		t.Errorf("swaps = %d", r.c.Stats().Swaps)
	}
}

// Uncached blocking load at the head of the ROB.
func TestUncachedLoadAtRetire(t *testing.T) {
	r := newRig(t)
	r.pt.MapRange(0x4000_0000, 0x4000_0000, mem.PageSize, mem.KindUncached, true)
	r.ram.WriteUint(0x4000_0020, 8, 0xFEED)
	r.load(t, `
	set 0x40000000, %o1
	ldx [%o1+32], %g1
	add %g1, 1, %g2         ! dependent on the I/O load
	halt
`)
	r.run(t, 1_000_000)
	st := r.c.State()
	if st.R[1] != 0xFEED || st.R[2] != 0xFEEE {
		t.Errorf("load chain: %#x %#x", st.R[1], st.R[2])
	}
	if r.c.Stats().UncachedLoads != 1 {
		t.Errorf("uncached loads = %d", r.c.Stats().UncachedLoads)
	}
}

// All FPU ops and long-latency units through the in-package pipeline.
func TestFPUPipeline(t *testing.T) {
	r := newRig(t)
	r.load(t, `
	.org 0x1000
vals:	.double 6.0, 1.5
	.entry main
main:
	set vals, %o1
	ldd [%o1], %f0          ! 6.0
	ldd [%o1+8], %f2        ! 1.5
	faddd %f0, %f2, %f4     ! 7.5
	fsubd %f0, %f2, %f6     ! 4.5
	fmuld %f0, %f2, %f8     ! 9.0
	fdivd %f0, %f2, %f10    ! 4.0
	fnegd %f10, %f12        ! -4.0
	fdtoi %f8, %g1          ! 9
	mov 100, %g5
	mul %g5, %g5, %g6       ! 10000 (integer multiply unit)
	fcmpd %f4, %f6
	bg bigger
	clr %g7
	halt
bigger:	mov 1, %g7
	halt
`)
	r.run(t, 1_000_000)
	st := r.c.State()
	if st.R[1] != 9 {
		t.Errorf("fdtoi = %d", st.R[1])
	}
	if st.R[6] != 10000 {
		t.Errorf("mul = %d", st.R[6])
	}
	if st.R[7] != 1 {
		t.Error("fcmpd/bg path wrong")
	}
}

// A load must wait for an older store with a not-yet-computed address
// (orderingSafe's unknown-address conservatism), then read the right data.
func TestLoadWaitsForUnknownStoreAddress(t *testing.T) {
	r := newRig(t)
	r.load(t, `
	set 0x20000, %o1
	mov 5, %g1
	mul %g1, 8, %g2         ! slow address computation (multiply)
	add %g2, %o1, %g3
	stx %g1, [%g3]          ! store to 0x20028, address late
	ldx [%o1+40], %g4       ! same location, must see 5
	halt
`)
	r.run(t, 1_000_000)
	if got := r.c.State().R[4]; got != 5 {
		t.Errorf("load got %d, want 5 (ordering violated)", got)
	}
}

func TestJALRThroughPipeline(t *testing.T) {
	r := newRig(t)
	r.load(t, `
	set fn, %g1
	jalr %g1, 0, %o7        ! indirect call stalls fetch until resolved
	mov %o0, %g2
	halt
fn:	mov 33, %o0
	jalr %o7, 0, %g0
`)
	r.run(t, 1_000_000)
	if got := r.c.State().R[2]; got != 33 {
		t.Errorf("indirect call result = %d", got)
	}
}

func TestAccessorsAndStall(t *testing.T) {
	r := newRig(t)
	if r.c.PageTable() != r.pt {
		t.Error("PageTable accessor")
	}
	if r.c.TLB() == nil {
		t.Error("TLB accessor")
	}
	r.load(t, "mov 1, %g1\nhalt\n")
	r.c.Stall(100)
	r.run(t, 10_000)
	if r.c.Cycles() < 100 {
		t.Errorf("stall not charged: %d cycles", r.c.Cycles())
	}
}

// Exactly-once under interrupts: post an interrupt at every possible
// cycle during a CSB sequence and during blocking uncached loads. No
// matter where the interrupt lands, every I/O side effect must happen
// exactly once — in particular, an interrupt must not flush-and-replay a
// conditional flush or an uncached load that is already in flight.
func TestInterruptNeverReplaysInFlightIO(t *testing.T) {
	const handler = `
	set handler, %g1
	wrpr %g1, %ivec
	mov 1, %g1
	wrpr %g1, %status
`
	csbProg := handler + `
	set 0x40000000, %o1
	mov 7, %g6
	movr2f %g6, %f0
RETRY:
	set 8, %l4
	std %f0, [%o1]
	std %f0, [%o1+8]
	std %f0, [%o1+16]
	std %f0, [%o1+24]
	std %f0, [%o1+32]
	std %f0, [%o1+40]
	std %f0, [%o1+48]
	std %f0, [%o1+56]
	swap [%o1], %l4
	cmp %l4, 8
	bnz RETRY
	membar
	halt
handler:
	add %g5, 1, %g5
	iret
`
	for k := 5; k < 140; k += 3 {
		r := newRig(t)
		r.pt.MapRange(0x4000_0000, 0x4000_0000, mem.PageSize, mem.KindCombining, true)
		r.load(t, csbProg)
		posted := false
		for i := 0; i < 1_000_000 && !r.c.Halted(); i++ {
			if i == k && !posted {
				r.c.Interrupt(uint64(isa.CauseTimer))
				posted = true
			}
			r.tick()
		}
		if err := r.c.Err(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for i := 0; i < 10000 && !r.s.Drained(); i++ {
			r.tick()
		}
		s := r.s.Stats()
		if s.FlushOK+s.FlushFail == 0 {
			t.Fatalf("k=%d: no flush attempted", k)
		}
		if s.Bursts != s.FlushOK {
			t.Fatalf("k=%d: bursts %d != successful flushes %d", k, s.Bursts, s.FlushOK)
		}
		// The net effect must be exactly one committed line: the final
		// successful flush. Retries (from interrupted sequences) fail
		// first, never commit twice.
		if s.FlushOK != 1 {
			t.Fatalf("k=%d: %d successful flushes, want exactly 1 (ok=%d fail=%d stores=%d)",
				k, s.FlushOK, s.FlushOK, s.FlushFail, s.Stores)
		}
	}
}

func TestInterruptNeverReplaysUncachedLoad(t *testing.T) {
	prog := `
	set handler, %g1
	wrpr %g1, %ivec
	mov 1, %g1
	wrpr %g1, %status
	set 0x40000000, %o1
	ldx [%o1], %g2          ! blocking I/O load #1
	ldx [%o1+8], %g3        ! blocking I/O load #2
	halt
handler:
	add %g5, 1, %g5
	iret
`
	for k := 5; k < 200; k += 7 {
		r := newRig(t)
		r.pt.MapRange(0x4000_0000, 0x4000_0000, mem.PageSize, mem.KindUncached, true)
		r.ram.WriteUint(0x4000_0000, 8, 0xAA)
		r.ram.WriteUint(0x4000_0008, 8, 0xBB)
		r.load(t, prog)
		posted := false
		for i := 0; i < 1_000_000 && !r.c.Halted(); i++ {
			if i == k && !posted {
				r.c.Interrupt(uint64(isa.CauseTimer))
				posted = true
			}
			r.tick()
		}
		if err := r.c.Err(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		st := r.c.State()
		if st.R[2] != 0xAA || st.R[3] != 0xBB {
			t.Fatalf("k=%d: loads = %#x %#x", k, st.R[2], st.R[3])
		}
		// Each load must have produced exactly one bus read.
		if got := r.b.Stats().Reads; got > 3 { // 2 I/O loads + possibly 1 icache fill
			t.Fatalf("k=%d: %d bus reads (I/O load replayed?)", k, got)
		}
		if got := r.c.Stats().UncachedLoads; got != 2 {
			t.Fatalf("k=%d: %d uncached loads retired, want 2", k, got)
		}
	}
}

// TestUopSize: newUop zeroes a whole uop for every fetched instruction,
// so the struct stays within 256 bytes and holds no padding between its
// fields: its size is the sum of theirs, rounded up to its alignment.
func TestUopSize(t *testing.T) {
	typ := reflect.TypeOf(uop{})
	var sum uintptr
	for i := 0; i < typ.NumField(); i++ {
		sum += typ.Field(i).Type.Size()
	}
	align := uintptr(typ.Align())
	packed := (sum + align - 1) / align * align
	if size := unsafe.Sizeof(uop{}); size > 256 || size != packed {
		t.Errorf("uop is %d bytes, want at most 256 with no padding between fields (%d)", size, packed)
	}
}

// TestDecodeCacheGrows: the decode cache starts at decCacheMin entries
// and quadruples, keeping its live entries, when a miss would evict a
// live entry for another PC; at decCacheMax a conflicting PC replaces it.
func TestDecodeCacheGrows(t *testing.T) {
	r := newRig(t)
	p, err := asm.Assemble("words.s", "add %g1, 1, %g2\nsub %g3, 2, %g4\n")
	if err != nil {
		t.Fatal(err)
	}
	_, code, err := p.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	in0, in1 := isa.Decode(mem.ByteOrder.Uint32(code)), isa.Decode(mem.ByteOrder.Uint32(code[4:]))
	const pc = 0x10000
	r.ram.Write(pc, code[:4])
	if got := r.c.decode(pc).inst; got != in0 || len(r.c.decCache) != decCacheMin {
		t.Fatalf("decode = %v with %d entries, want %v with %d", got, len(r.c.decCache), in0, decCacheMin)
	}
	// Overwrite pc's word behind the cache's back: decode(pc) returns in0
	// for as long as pc's entry lives.
	r.ram.Write(pc, code[4:])
	for _, want := range []struct {
		size int
		pc   isa.Inst
	}{{4 * decCacheMin, in0}, {16 * decCacheMin, in0}, {decCacheMax, in0}, {decCacheMax, in1}} {
		// The PC one cache size up maps to pc's slot.
		other := uint64(pc + 4*len(r.c.decCache))
		r.ram.Write(other, code[4:])
		if got := r.c.decode(other).inst; got != in1 || len(r.c.decCache) != want.size {
			t.Fatalf("decode(%#x) = %v with %d entries, want %v with %d",
				other, got, len(r.c.decCache), in1, want.size)
		}
		if got := r.c.decode(pc).inst; got != want.pc {
			t.Fatalf("with %d entries decode(pc) = %v, want %v", want.size, got, want.pc)
		}
	}
}
