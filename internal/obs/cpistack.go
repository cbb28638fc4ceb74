// Package obs is the simulator's observability layer: CPI stall-attribution
// stacks, per-instruction lifecycle and bus-transaction events (the
// flight recorder's pipeline tail, drawn by `csbrec perfetto`) and a
// plain-text pipeline diagram. Periodic time series live in the flight
// recorder (internal/obs/rec).
//
// The package is a leaf: it imports only the standard library, so the
// machine packages (cpu, sim) can depend on its types without cycles. The
// CPU charges every cycle in which retire slot 0 commits nothing to
// exactly one StallCause, so a CPIStack's buckets always sum to the total
// cycle count — the decomposition that makes the paper's uncached-store
// penalty directly visible instead of buried in an aggregate IPC.
package obs

import (
	"fmt"
	"sort"
	"strings"
)

// StallCause labels why a CPU cycle produced no commit in retire slot 0.
// CauseCommit is the one non-stall bucket: at least one instruction
// retired that cycle.
type StallCause uint8

const (
	// CauseCommit counts cycles in which retire slot 0 committed.
	CauseCommit StallCause = iota
	// CauseFrontend counts ROB-empty cycles: fetch/decode starvation.
	CauseFrontend
	// CauseICacheMiss counts ROB-empty cycles behind an I-cache fill.
	CauseICacheMiss
	// CauseBranchSquash counts ROB-empty cycles refilling after a
	// mispredicted branch squashed the pipeline.
	CauseBranchSquash
	// CauseExec counts cycles the ROB head waits on operands or a
	// functional-unit latency (data-dependence chains).
	CauseExec
	// CauseDCache counts cycles the head load/swap waits on the data
	// cache (access latency or a fill in flight).
	CauseDCache
	// CauseLSQ counts cycles the head memory op waits on address
	// generation, memory ports or load/store ordering.
	CauseLSQ
	// CauseTLB counts cycles the head waits on a hardware page walk.
	CauseTLB
	// CauseUncached counts cycles an uncached access stalls on a full
	// uncached buffer — the serialized-store drain the paper attacks.
	CauseUncached
	// CauseBusArb counts cycles a retire-executed access waits for its
	// bus transaction (arbitration plus occupancy).
	CauseBusArb
	// CauseCSB counts cycles a combining store or conditional flush
	// stalls on the conditional store buffer (busy or flush latency).
	CauseCSB
	// CauseMembar counts cycles a MEMBAR waits for buffers to drain.
	CauseMembar
	// CauseStoreBuf counts cycles a cached store blocks on a full
	// write buffer at retire.
	CauseStoreBuf
	// CauseKernel counts injected kernel context-switch stall cycles.
	CauseKernel
	// CauseInterrupt counts interrupt-delivery flush cycles.
	CauseInterrupt
	// CauseHalted counts cycles ticked after HALT (buffer draining).
	CauseHalted
	// CauseOther catches anything unclassified (faults mid-halt).
	CauseOther

	// NumCauses is the bucket count; CPIStack is indexed by StallCause.
	NumCauses
)

var causeNames = [NumCauses]string{
	"commit", "frontend", "icache-miss", "branch-squash", "exec",
	"dcache", "lsq", "tlb-walk", "uncached-drain", "bus-arb",
	"csb-busy", "membar", "store-buffer", "kernel", "interrupt",
	"halted", "other",
}

// String returns the short bucket name used in reports and JSON.
func (c StallCause) String() string {
	if c < NumCauses {
		return causeNames[c]
	}
	return fmt.Sprintf("cause-%d", uint8(c))
}

// CPIStack accumulates one bucket per cycle. The zero value is ready to
// use; it is a plain array so snapshotting it is a copy.
type CPIStack [NumCauses]uint64

// Add charges one cycle to the given cause.
func (s *CPIStack) Add(c StallCause) { s[c]++ }

// Total returns the sum of all buckets — by construction, the total cycle
// count of the run that produced the stack.
func (s CPIStack) Total() uint64 {
	var t uint64
	for _, v := range s {
		t += v
	}
	return t
}

// StallCycles returns the cycles not spent committing.
func (s CPIStack) StallCycles() uint64 { return s.Total() - s[CauseCommit] }

// Format renders the stack as an aligned table: commit first, then stall
// buckets in descending order, zero buckets omitted.
func (s CPIStack) Format() string {
	total := s.Total()
	var b strings.Builder
	fmt.Fprintf(&b, "cpi stack (%d cycles):\n", total)
	if total == 0 {
		return b.String()
	}
	row := func(c StallCause) {
		fmt.Fprintf(&b, "  %-14s %12d  %5.1f%%\n",
			c.String(), s[c], 100*float64(s[c])/float64(total))
	}
	row(CauseCommit)
	order := make([]StallCause, 0, NumCauses)
	for c := StallCause(1); c < NumCauses; c++ {
		if s[c] > 0 {
			order = append(order, c)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if s[order[i]] != s[order[j]] {
			return s[order[i]] > s[order[j]]
		}
		return order[i] < order[j]
	})
	for _, c := range order {
		row(c)
	}
	return b.String()
}

// MarshalJSON renders the stack as an object keyed by bucket name, in
// cause order, including zero buckets (machine consumers want a stable
// schema).
func (s CPIStack) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('{')
	for c := StallCause(0); c < NumCauses; c++ {
		if c > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%d", c.String(), s[c])
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}
