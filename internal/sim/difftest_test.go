package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"csbsim/internal/asm"
	"csbsim/internal/emu"
	"csbsim/internal/fault"
	"csbsim/internal/isa"
	"csbsim/internal/mem"
)

// Differential testing: random structured programs must leave the
// out-of-order machine and the sequential reference emulator in identical
// architectural state (registers, FP registers, memory). This exercises
// renaming, speculation, squashing, load/store ordering and the retire
// logic far beyond what hand-written cases cover.

const (
	diffScratch = 0x20000 // scratch buffer (covered by the loader's map)
	diffBufLen  = 512
	diffIOBase  = 0x4800_0000 // uncached region: %o0 points here
	diffIOLen   = 256
	diffCSBBase = 0x4100_0000 // combining region of the §3.2 blocks
	diffCSBLen  = 512
)

// A mix selects the kinds of a generated program's pages. Mix 0 is the
// plain differential program: a cached scratch page at %o1 and an
// uncached page at %o0.
const (
	mixScratchUncached = 1 << iota // map the scratch page uncached
	mixIOCached                    // map %o0's page cached
	mixCombining                   // add §3.2 blocks into a combining page
	mixFaults                      // inject the default fault mix, so flushes fail and retries run
	mixAll                         // one past the last mix bit
)

// genRegs are the general-purpose registers the generator uses freely.
// %l4-%l7 are reserved as loop counters (one per nesting depth) so
// generated bodies can never clobber the counter of a loop around them.
// %o0 is reserved as the uncached-region base, %o1 as the scratch base,
// %o7 as the return-address register.
var genRegs = []string{
	"%g1", "%g2", "%g3", "%g4", "%g5", "%g6", "%g7",
	"%o2", "%o3", "%o4", "%o5",
	"%l0", "%l1", "%l2", "%l3",
	"%i0", "%i1", "%i2", "%i3", "%i4", "%i5",
}

type progGen struct {
	r     *rand.Rand
	b     strings.Builder
	label int
	mix   uint8
}

func (g *progGen) reg() string { return genRegs[g.r.Intn(len(genRegs))] }

func (g *progGen) freg() string { return fmt.Sprintf("%%f%d", g.r.Intn(8)*2) }

func (g *progGen) newLabel() string {
	g.label++
	return fmt.Sprintf("L%d", g.label)
}

func (g *progGen) emitf(format string, args ...any) {
	fmt.Fprintf(&g.b, format+"\n", args...)
}

var aluOps = []string{"add", "sub", "and", "or", "xor", "mul", "addcc", "subcc", "andcc", "orcc"}
var shiftOps = []string{"sll", "srl", "sra"}
var fpOps = []string{"faddd", "fsubd", "fmuld"}
var conds = []string{"bz", "bnz", "bl", "bge", "bg", "ble", "blu", "bgeu", "bneg", "bpos"}

// alu emits a random integer operation.
func (g *progGen) alu() {
	op := aluOps[g.r.Intn(len(aluOps))]
	if g.r.Intn(2) == 0 {
		g.emitf("\t%s %s, %d, %s", op, g.reg(), g.r.Intn(4096)-2048, g.reg())
	} else {
		g.emitf("\t%s %s, %s, %s", op, g.reg(), g.reg(), g.reg())
	}
}

func (g *progGen) shift() {
	op := shiftOps[g.r.Intn(len(shiftOps))]
	g.emitf("\t%s %s, %d, %s", op, g.reg(), g.r.Intn(64), g.reg())
}

// store emits an aligned store of random width into the scratch buffer.
func (g *progGen) store() {
	widths := []struct {
		mn    string
		align int
	}{{"stb", 1}, {"sth", 2}, {"stw", 4}, {"stx", 8}}
	w := widths[g.r.Intn(len(widths))]
	off := g.r.Intn(diffBufLen/w.align) * w.align
	g.emitf("\t%s %s, [%%o1+%d]", w.mn, g.reg(), off)
}

func (g *progGen) load() {
	widths := []struct {
		mn    string
		align int
	}{{"ldb", 1}, {"ldh", 2}, {"ldw", 4}, {"ldx", 8}}
	w := widths[g.r.Intn(len(widths))]
	off := g.r.Intn(diffBufLen/w.align) * w.align
	g.emitf("\t%s [%%o1+%d], %s", w.mn, off, g.reg())
}

func (g *progGen) fp() {
	op := fpOps[g.r.Intn(len(fpOps))]
	g.emitf("\t%s %s, %s, %s", op, g.freg(), g.freg(), g.freg())
}

func (g *progGen) fpMove() {
	if g.r.Intn(2) == 0 {
		g.emitf("\tmovr2f %s, %s", g.reg(), g.freg())
	} else {
		g.emitf("\tmovf2r %s, %s", g.freg(), g.reg())
	}
}

// condSkip emits a compare and a forward conditional branch over a few
// instructions — the bread and butter of branch prediction and squashing.
func (g *progGen) condSkip(depth int) {
	l := g.newLabel()
	g.emitf("\tcmp %s, %s", g.reg(), g.reg())
	g.emitf("\t%s %s", conds[g.r.Intn(len(conds))], l)
	for i := 0; i < 1+g.r.Intn(3); i++ {
		g.block(depth + 1)
	}
	g.emitf("%s:", l)
}

// loop emits a counted loop with a small body; trip counts are bounded so
// programs always terminate.
func (g *progGen) loop(depth int) {
	l := g.newLabel()
	counter := fmt.Sprintf("%%l%d", 4+depth) // reserved counter per depth
	g.emitf("\tmov %d, %s", 1+g.r.Intn(8), counter)
	g.emitf("%s:", l)
	for i := 0; i < 1+g.r.Intn(2); i++ {
		g.block(depth + 1)
	}
	g.emitf("\tsubcc %s, 1, %s", counter, counter)
	g.emitf("\tbnz %s", l)
}

func (g *progGen) call() {
	g.emitf("\tcall leaf%d", g.r.Intn(2))
}

// swap exercises the atomic exchange (retire-executed even when cached).
func (g *progGen) swap() {
	off := g.r.Intn(diffBufLen/8) * 8
	g.emitf("\tswap [%%o1+%d], %s", off, g.reg())
}

// ucStore and ucLoad exercise the uncached buffer and blocking-load paths;
// the emulator sees them as ordinary memory accesses, so the final state
// must agree even though the machine routes them over the bus.
func (g *progGen) ucStore() {
	off := g.r.Intn(diffIOLen/8) * 8
	g.emitf("\tstx %s, [%%o0+%d]", g.reg(), off)
}

func (g *progGen) ucLoad() {
	off := g.r.Intn(diffIOLen/8) * 8
	g.emitf("\tldx [%%o0+%d], %s", off, g.reg())
}

// csbBlock emits a §3.2-shaped block into combining space: eight dword
// stores to one line, in random order, then the conditional flush, and
// the whole sequence again while the flush fails. The line address and
// the expected count are set at the top of the retry loop, so a retry
// stores what the first attempt did. Nothing else touches the page.
func (g *progGen) csbBlock() {
	l := g.newLabel()
	base, want := g.reg(), g.reg()
	for want == base {
		want = g.reg()
	}
	g.emitf("%s:", l)
	g.emitf("\tset %#x, %s", diffCSBBase+g.r.Intn(diffCSBLen/64)*64, base)
	g.emitf("\tset 8, %s", want)
	for _, dw := range g.r.Perm(8) {
		g.emitf("\tstx %s, [%s+%d]", g.reg(), base, dw*8)
	}
	g.emitf("\tswap [%s], %s", base, want)
	g.emitf("\tcmp %s, 8", want)
	g.emitf("\tbnz %s", l)
}

// block emits one random construct.
func (g *progGen) block(depth int) {
	if g.mix&mixCombining != 0 && g.r.Intn(4) == 0 {
		g.csbBlock()
		return
	}
	max := 10
	if depth >= 2 {
		max = 8 // no further nesting
	}
	switch g.r.Intn(max) {
	case 0, 1:
		g.alu()
	case 2:
		g.shift()
	case 3:
		g.store()
	case 4:
		g.load()
	case 5:
		g.fp()
		g.fpMove()
	case 6:
		g.call()
	case 7:
		switch g.r.Intn(4) {
		case 0:
			g.swap()
		case 1:
			g.emitf("\tmembar")
		case 2:
			g.ucStore()
		case 3:
			g.ucLoad()
		}
	case 8:
		g.condSkip(depth)
	case 9:
		g.loop(depth)
	}
}

// generate builds a complete random program for the page kinds of mix.
// Only mixCombining changes the text, so every other mix runs the
// program of mix 0.
func generate(seed int64, mix uint8) string {
	g := &progGen{r: rand.New(rand.NewSource(seed)), mix: mix}
	g.emitf("\tset %#x, %%o1", diffScratch)
	g.emitf("\tset %#x, %%o0", diffIOBase)
	for i, r := range genRegs {
		g.emitf("\tset %d, %s", g.r.Intn(1<<20)+i, r)
	}
	for i := 0; i < 8; i++ {
		g.emitf("\tmovr2f %s, %%f%d", g.reg(), i*2)
	}
	n := 12 + g.r.Intn(20)
	for i := 0; i < n; i++ {
		g.block(0)
	}
	g.emitf("\tmembar") // drain I/O before the final state comparison
	g.emitf("\thalt")
	// Leaf functions, placed after halt so fall-through never reaches them.
	g.emitf("leaf0:\tadd %%o2, 1, %%o2")
	g.emitf("\tret")
	g.emitf("leaf1:\txor %%g1, %%g2, %%g7")
	g.emitf("\tsub %%g7, 3, %%g7")
	g.emitf("\tret")
	return g.b.String()
}

// diffSetup assembles src and returns the emulator, already run, and a
// machine loaded with it, its pages mapped as mix selects and its faults
// attached. seed names the program in failures.
func diffSetup(t *testing.T, cfg Config, seed int64, mix uint8, src string) (*Machine, *emu.Emulator) {
	t.Helper()
	prog, err := asm.Assemble(fmt.Sprintf("seed%d.s", seed), src)
	if err != nil {
		t.Fatalf("seed %d: assemble: %v\n%s", seed, err, src)
	}

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	diffLoad(t, m, seed, mix, prog)

	e, err := emu.New(prog, emu.WithMaxSteps(5_000_000), emu.WithCombining(diffCSBBase, diffCSBLen))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("seed %d: emulator: %v\n%s", seed, err, src)
	}
	return m, e
}

// diffLoad loads prog into m, maps its pages as mix selects, attaches
// its faults and warms its caches.
func diffLoad(t *testing.T, m *Machine, seed int64, mix uint8, prog *asm.Program) {
	t.Helper()
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	if mix&mixIOCached == 0 {
		m.MapRange(diffIOBase, mem.PageSize, mem.KindUncached)
	} else {
		m.MapRange(diffIOBase, mem.PageSize, mem.KindCached)
	}
	if mix&mixScratchUncached != 0 {
		m.MapRange(diffScratch, mem.PageSize, mem.KindUncached)
	}
	if mix&mixCombining != 0 {
		m.MapRange(diffCSBBase, mem.PageSize, mem.KindCombining)
	}
	if mix&mixFaults != 0 {
		fcfg := fault.DefaultConfig()
		fcfg.Seed = uint64(seed)
		if _, err := m.AttachFaults(fcfg); err != nil {
			t.Fatal(err)
		}
	}
	m.WarmProgram(prog)
}

// checkArch reports every register, FP register and condition-code
// difference between the finished machine and the emulator.
func checkArch(t *testing.T, m *Machine, e *emu.Emulator) {
	t.Helper()
	st := m.CPU.State()
	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		if st.R[r] != e.R[r] {
			t.Errorf("%s = %#x (machine) vs %#x (emu)", isa.RegName(r), st.R[r], e.R[r])
		}
	}
	for f := 0; f < isa.NumFRegs; f++ {
		if st.F[f] != e.F[f] {
			t.Errorf("%%f%d = %#x vs %#x", f, st.F[f], e.F[f])
		}
	}
	if st.CC != e.CC {
		t.Errorf("CC = %+v vs %+v", st.CC, e.CC)
	}
}

// diffCompare compares all architectural state of the finished machine
// and emulator: checkArch's and the three pages' memory.
func diffCompare(t *testing.T, seed int64, src string, m *Machine, e *emu.Emulator) {
	t.Helper()
	checkArch(t, m, e)
	for _, r := range []struct {
		name      string
		base, len uint64
	}{{"mem", diffScratch, diffBufLen}, {"io", diffIOBase, diffIOLen}, {"csb", diffCSBBase, diffCSBLen}} {
		for off := uint64(0); off < r.len; off += 8 {
			mv := m.RAM.ReadUint(r.base+off, 8)
			ev := e.Mem.ReadUint(r.base+off, 8)
			if mv != ev {
				t.Errorf("%s[%#x] = %#x vs %#x", r.name, r.base+off, mv, ev)
			}
		}
	}
	if t.Failed() {
		t.Logf("seed %d program:\n%s", seed, src)
		t.FailNow()
	}
}

// runBoth executes the program on an OOO machine built from cfg and on the
// reference emulator and compares all architectural state. setup, if not
// nil, runs on the loaded machine before it starts. It returns the
// machine for further checks.
func runBoth(t *testing.T, cfg Config, seed int64, src string, setup func(*Machine)) *Machine {
	t.Helper()
	m, e := diffSetup(t, cfg, seed, 0, src)
	if setup != nil {
		setup(m)
	}
	if err := m.Run(20_000_000); err != nil {
		t.Fatalf("seed %d: machine: %v\n%s", seed, err, src)
	}
	diffCompare(t, seed, src, m, e)
	return m
}

// runBothChecked is runBoth for the page kinds of mix, driven by
// runChecked, so the scheduling queues are checked after every step.
func runBothChecked(t *testing.T, cfg Config, seed int64, mix uint8, src string) *Machine {
	t.Helper()
	m, e := diffSetup(t, cfg, seed, mix, src)
	if err := runChecked(t, m, 20_000_000); err != nil {
		t.Fatalf("seed %d mix %d: machine: %v\n%s", seed, mix, err, src)
	}
	// A conditional flush retires before its line lands.
	if err := m.Drain(1_000_000); err != nil {
		t.Fatalf("seed %d mix %d: drain: %v", seed, mix, err)
	}
	diffCompare(t, seed, src, m, e)
	if s := m.Stats(); s.CPU.CPI.Total() != s.Cycles {
		t.Errorf("seed %d mix %d: CPI stack sums to %d, cycles %d", seed, mix, s.CPU.CPI.Total(), s.Cycles)
	}
	return m
}

func diffSeeds() int {
	if testing.Short() {
		return 10
	}
	return 60
}

// diffInput is one FuzzDifferential input.
type diffInput struct {
	seed int64
	mix  uint8
}

// diffCorpus is FuzzDifferential's corpus: the differential seeds at mix
// 0 and each seed once more at one of the other mixes.
func diffCorpus() []diffInput {
	var in []diffInput
	for seed := 0; seed < diffSeeds(); seed++ {
		in = append(in, diffInput{int64(seed), 0}, diffInput{int64(seed), uint8(mixAll - 1 - seed%(mixAll-1))})
	}
	return in
}

// FuzzDifferential runs a random structured program (seed) on the
// machine and on the emulator with the page kinds and faults of mix,
// and requires identical architectural state. The corpus is diffCorpus.
func FuzzDifferential(f *testing.F) {
	for _, in := range diffCorpus() {
		f.Add(in.seed, in.mix)
	}
	f.Fuzz(func(t *testing.T, seed int64, mix uint8) {
		mix %= mixAll
		runBothChecked(t, DefaultConfig(), seed, mix, generate(seed, mix))
	})
}

// TestSchedulingQueuesMatchROB runs the differential seeds with a 4-entry
// TLB, so page walks count down in the execute queue alongside
// mispredict squashes and cached-load fills, and checks after every step
// that the issue and execute queues are exactly what the ROB implies.
func TestSchedulingQueuesMatchROB(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPU.TLBEntries = 4
	var walks, squashes, fills uint64
	for seed := 0; seed < diffSeeds(); seed++ {
		s := runBothChecked(t, cfg, int64(seed), 0, generate(int64(seed), 0)).Stats()
		walks += s.TLBMisses
		squashes += s.CPU.Mispredicts
		fills += s.Caches.L1D.Misses
	}
	if walks == 0 || squashes == 0 || fills == 0 {
		t.Errorf("walks %d, mispredict squashes %d, L1D fills %d: every event must occur", walks, squashes, fills)
	}
}

// TestZeroLatencyTLBWalk is the regression test for TLBWalkLatency 0,
// which Validate accepts: a walk used to start with nothing to count
// down and never finish, wedging the first TLB-missing store. The walk
// must complete on the spot: the run matches the emulator and times
// exactly like one whose accesses all hit a large TLB.
func TestZeroLatencyTLBWalk(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPU.TLBWalkLatency = 0
	cfg.CPU.TLBEntries = 2
	// A dependent chain of accesses rotating over three pages: with two
	// TLB entries every access misses, and each walk is on the chain.
	src := fmt.Sprintf(`
	set %#x, %%o1
	set 4096, %%g4
	mov 100, %%g2
	clr %%g3
loop:
	add %%o1, %%g3, %%o2    ! %%g3 is always 0: a dependence, not an offset
	stx %%g2, [%%o2+8]
	ldx [%%o2], %%g3
	add %%o2, %%g4, %%o2
	add %%o2, %%g3, %%o2
	ldx [%%o2], %%g3
	add %%o2, %%g4, %%o2
	add %%o2, %%g3, %%o2
	ldx [%%o2], %%g3
	subcc %%g2, 1, %%g2
	bnz loop
	halt
`, diffScratch)
	free := runBothChecked(t, cfg, 0, 0, src).Stats()
	if free.TLBMisses < 300 {
		t.Errorf("TLB misses = %d, want >= 300 (every access)", free.TLBMisses)
	}
	cfg.CPU.TLBEntries = 64
	hits := runBoth(t, cfg, 0, src, nil).Stats()
	if free.Cycles != hits.Cycles {
		t.Errorf("free walks took %d cycles, TLB hits %d: a free walk must cost nothing",
			free.Cycles, hits.Cycles)
	}
}

// TestDifferentialColdCaches repeats a subset without warming, exercising
// I-cache miss stalls interleaved with speculation.
func TestDifferentialColdCaches(t *testing.T) {
	for seed := 100; seed < 110; seed++ {
		src := generate(int64(seed), 0)
		prog, err := asm.Assemble("cold.s", src)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(prog); err != nil {
			t.Fatal(err)
		}
		m.MapRange(diffIOBase, mem.PageSize, mem.KindUncached)
		if err := m.Run(20_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		e, _ := emu.New(prog, emu.WithMaxSteps(5_000_000))
		if err := e.Run(); err != nil {
			t.Fatalf("seed %d: emu: %v", seed, err)
		}
		if checkArch(t, m, e); t.Failed() {
			t.Fatalf("seed %d:\n%s", seed, src)
		}
	}
}
