package bench

import (
	"fmt"
	"strings"

	"csbsim/internal/asm"
	"csbsim/internal/bus"
	"csbsim/internal/core"
	"csbsim/internal/mem"
	"csbsim/internal/sim"
)

// MachineParams selects the machine variation a measurement runs on.
type MachineParams struct {
	Ratio    int        // CPU:bus frequency ratio
	LineSize int        // cache line = CSB burst size
	Bus      bus.Config // bus model and overheads
	Scheme   Scheme
	// DoubleBufferedCSB enables the two-line CSB (ablation X1).
	DoubleBufferedCSB bool
	// SequentialCombining restricts the uncached buffer to R10000-style
	// strictly sequential combining (ablation X4).
	SequentialCombining bool
	// CoreWidth overrides the fetch/dispatch/retire width (0 keeps the
	// default 4-wide core). Used by X7: the paper reports lock overhead
	// is insensitive to 2-way vs 8-way superscalar width.
	CoreWidth int
}

// DefaultParams is the paper's base point: ratio 6, 64-byte lines, 8-byte
// multiplexed bus, no turnaround, no ack delay.
func DefaultParams() MachineParams {
	return MachineParams{
		Ratio:    6,
		LineSize: 64,
		Bus:      bus.Config{Model: bus.Multiplexed, WidthBytes: 8, ReadWait: 6, IOReadWait: 4},
		Scheme:   0,
	}
}

// Build constructs a machine for the given parameters.
func (p MachineParams) Build() (*sim.Machine, error) {
	return build(p.config())
}

// config is the machine configuration of the given parameters.
func (p MachineParams) config() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Ratio = p.Ratio
	cfg.Bus = p.Bus
	ls := p.LineSize
	cfg.Caches.L1I.LineSize = ls
	cfg.Caches.L1D.LineSize = ls
	cfg.Caches.L2.LineSize = ls
	cfg.CSB = core.Config{LineSize: ls, CheckAddress: true, DoubleBuffered: p.DoubleBufferedCSB}
	cfg.UB.MaxBurst = ls
	cfg.UB.Sequential = p.SequentialCombining
	switch {
	case p.Scheme == SchemeCSB:
		cfg.UB.BlockSize = 0
	default:
		cfg.UB.BlockSize = int(p.Scheme)
	}
	if p.CoreWidth > 0 {
		cfg.CPU.FetchWidth = p.CoreWidth
		cfg.CPU.DispatchWidth = p.CoreWidth
		cfg.CPU.RetireWidth = p.CoreWidth
		// Scale the issue bandwidth with the core, as the paper's 2- and
		// 8-way variants would.
		cfg.CPU.IntALUs = max(1, p.CoreWidth/2)
		cfg.CPU.FPUs = max(1, p.CoreWidth/2)
	}
	return cfg
}

// span tracks the bus-cycle window occupied by the measured I/O store
// traffic.
type span struct {
	first, last uint64
	bytes       uint64
	txns        uint64
	seen        bool
}

func (s *span) observe(t *bus.Txn) {
	if !t.Write || !t.IO {
		return
	}
	if !s.seen || t.Start < s.first {
		s.first = t.Start
		s.seen = true
	}
	if t.End > s.last {
		s.last = t.End
	}
	s.bytes += uint64(t.Size)
	s.txns++
}

func (s *span) cycles() uint64 {
	if !s.seen {
		return 0
	}
	return s.last - s.first + 1
}

// storeKind is the page kind a scheme's I/O window is mapped with: the
// CSB captures stores to combining pages, every other scheme sends them
// through the uncached buffer.
func storeKind(s Scheme) mem.Kind {
	if s == SchemeCSB {
		return mem.KindCombining
	}
	return mem.KindUncached
}

// assemble is asm.Assemble: every program a figure runs is assembled
// through it, so a test can collect the sources the figures produce.
var assemble = asm.Assemble

// source is one program text and the file name its errors cite.
type source struct{ name, text string }

// assembleEach assembles srcs on the sweep pool, one program per source
// in srcs' order. A figure lists each distinct source once and its
// points share the programs, which they only read.
func assembleEach(srcs []source) ([]*asm.Program, error) {
	return Sweep(srcs, 0, func(s source) (*asm.Program, error) { return assemble(s.name, s.text) })
}

// measureStoreStream is the shared store-bandwidth harness: take w's
// machine for p, map the I/O window with the scheme's memory kind, run
// the given store program to completion, drain the buffers, and return
// the effective bandwidth (useful bytes per bus cycle) over the observed
// I/O-write window. The program is only read, so concurrent
// measurements may share it.
func measureStoreStream(w *worker, p MachineParams, prog *asm.Program, totalBytes int) (float64, error) {
	m, err := w.machine(p.config())
	if err != nil {
		return 0, err
	}
	m.MapRange(IOBase, 1<<20, storeKind(p.Scheme))
	if err := m.Load(prog); err != nil {
		return 0, err
	}
	m.WarmProgram(prog)

	var sp span
	m.Bus.AttachObserver(sp.observe)

	if err := m.Run(50_000_000); err != nil {
		return 0, err
	}
	if err := m.Drain(1_000_000); err != nil {
		return 0, err
	}
	cyc := sp.cycles()
	if cyc == 0 {
		return 0, fmt.Errorf("bench: no I/O transactions observed")
	}
	return float64(totalBytes) / float64(cyc), nil
}

// MeasureBandwidth runs the store-bandwidth microbenchmark for one
// (transfer size, scheme, machine) point and returns the effective
// bandwidth in useful bytes per bus cycle.
func MeasureBandwidth(p MachineParams, totalBytes int) (float64, error) {
	prog, err := assemble("bandwidth.s", StoreBandwidthProgram(totalBytes, p.LineSize, p.Scheme == SchemeCSB))
	if err != nil {
		return 0, err
	}
	return measureStoreStream(nil, p, prog, totalBytes)
}

// measureShuffledBandwidth is MeasureBandwidth with the shuffled-order
// workload (ablation X4).
func measureShuffledBandwidth(p MachineParams, totalBytes int) (float64, error) {
	prog, err := assemble("shuffled.s", ShuffledStoreProgram(totalBytes, p.LineSize))
	if err != nil {
		return 0, err
	}
	return measureStoreStream(nil, p, prog, totalBytes)
}

// MeasureCSBIssueOverhead returns the CPU cycles a program needs to issue
// n back-to-back full-line CSB sequences and halt (not counting the
// background draining of the bursts). This is where the double-buffered
// CSB of §3.2 pays off: the single-entry design stalls each new sequence
// until the previous line has been handed to the system interface.
func MeasureCSBIssueOverhead(p MachineParams, lines int) (float64, error) {
	prog, err := assemble("issue.s", issueProgram(lines, p.LineSize))
	if err != nil {
		return 0, err
	}
	return csbIssueOverhead(nil, p, prog)
}

// issueProgram is the CSB store stream of lines full lines without its
// trailing barrier: the core is free at halt, and the bursts drain in
// the background.
func issueProgram(lines, lineSize int) string {
	src := StoreBandwidthProgram(lines*lineSize, lineSize, true)
	return strings.Replace(src, "\tmembar\n\thalt\n", "\thalt\n", 1)
}

// csbIssueOverhead is MeasureCSBIssueOverhead on an assembled
// issueProgram, which it only reads, on w's machine.
func csbIssueOverhead(w *worker, p MachineParams, prog *asm.Program) (float64, error) {
	m, err := w.machine(p.config())
	if err != nil {
		return 0, err
	}
	m.MapRange(IOBase, 1<<20, mem.KindCombining)
	if err := m.Load(prog); err != nil {
		return 0, err
	}
	m.WarmProgram(prog)
	if err := m.Run(50_000_000); err != nil {
		return 0, err
	}
	cycles := float64(m.Cycle())
	if err := m.Drain(1_000_000); err != nil {
		return 0, err
	}
	return cycles, nil
}

// MeasureLockLatency runs the figure-5 microbenchmark: the CPU-cycle cost
// of one lock-access-unlock sequence (or CSB sequence) transferring
// nDwords doublewords, with the lock either warm in L1 or cold.
func MeasureLockLatency(p MachineParams, nDwords int, lockHit bool) (float64, error) {
	seq, err := assemble("lock.s", lockSequenceProgram(p.Scheme, nDwords))
	if err != nil {
		return 0, err
	}
	prologue, err := assemble("lock.s", LockPrologueProgram())
	if err != nil {
		return 0, err
	}
	full, err := runLock(nil, p, seq, lockHit)
	if err != nil {
		return 0, err
	}
	base, err := runLock(nil, p, prologue, lockHit)
	if err != nil {
		return 0, err
	}
	return lockLatency(full, base)
}

// lockSequenceProgram is the figure-5 sequence a scheme runs: the CSB's
// combining stores and conditional flush, or every other scheme's
// lock-access-unlock.
func lockSequenceProgram(s Scheme, nDwords int) string {
	if s == SchemeCSB {
		return CSBSequenceProgram(nDwords)
	}
	return LockSequenceProgram(nDwords)
}

// runLock runs prog, a figure-5 program, to its halt on w's machine and
// returns the cycle count. Unless lockHit, the lock's line is evicted
// first. The program is only read, so concurrent runs may share it.
func runLock(w *worker, p MachineParams, prog *asm.Program, lockHit bool) (uint64, error) {
	m, err := w.machine(p.config())
	if err != nil {
		return 0, err
	}
	m.MapRange(IOBase, 1<<20, storeKind(p.Scheme))
	if err := m.Load(prog); err != nil {
		return 0, err
	}
	m.WarmProgram(prog)
	if !lockHit {
		// Evict the lock line so the swap misses (figure 5b). The
		// prologue data page was warmed wholesale; invalidate the
		// lock's line in both levels.
		lockAddr, ok := prog.Symbol("lock")
		if ok {
			m.Hier.L1D().Invalidate(lockAddr)
			m.Hier.L2().Invalidate(lockAddr)
		}
	}
	if err := m.Run(50_000_000); err != nil {
		return 0, err
	}
	return m.Cycle(), nil
}

// lockLatency is a sequence's cost: its run's cycles less those of the
// prologue alone on the same machine.
func lockLatency(full, base uint64) (float64, error) {
	if full < base {
		return 0, fmt.Errorf("bench: negative lock latency (%d < %d)", full, base)
	}
	return float64(full - base), nil
}
