package cpu

import (
	"csbsim/internal/isa"
)

// ArchState is the committed architectural state of the processor: what a
// context switch saves and restores. The CSB is deliberately *not* part of
// it — an interrupted combining sequence is detected and discarded by the
// CSB's PID/counter check, never saved (§3.2).
type ArchState struct {
	R  [isa.NumRegs]uint64
	F  [isa.NumFRegs]uint64 // IEEE-754 bit patterns
	CC isa.Flags
	PC uint64
	PR [isa.NumPRs]uint64
}

// PID returns the process ID privileged register as the 8-bit ASID the TLB
// and CSB see.
func (a *ArchState) PID() uint8 { return uint8(a.PR[isa.PRPID]) }

// InterruptsEnabled reports bit 0 of the status register.
func (a *ArchState) InterruptsEnabled() bool { return a.PR[isa.PRSTATUS]&1 != 0 }

// predictor is a table of 2-bit saturating counters indexed by PC. Direct
// branch targets are computed from the decoded instruction, so no BTB is
// needed; indirect jumps (JALR) stall fetch until they resolve.
type predictor struct {
	counters []uint8
}

func newPredictor(size int) *predictor {
	p := &predictor{counters: make([]uint8, size)}
	p.reset()
	return p
}

// reset sets every counter to weakly not-taken, doubling the set prefix
// with each copy (a reset machine pays it for every figure point).
func (p *predictor) reset() {
	c := p.counters
	c[0] = 1 // Config.Validate keeps at least one counter
	for n := 1; n < len(c); n *= 2 {
		copy(c[n:], c[:n])
	}
}

func (p *predictor) index(pc uint64) int {
	return int(pc>>2) & (len(p.counters) - 1)
}

func (p *predictor) predict(pc uint64) bool {
	return p.counters[p.index(pc)] >= 2
}

func (p *predictor) update(pc uint64, taken bool) {
	i := p.index(pc)
	c := p.counters[i]
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	p.counters[i] = c
}
