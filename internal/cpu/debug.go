package cpu

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"csbsim/internal/isa"
)

// Retired returns the committed-instruction count without copying the
// whole Stats struct — cheap enough for the machine watchdog to poll.
func (c *CPU) Retired() uint64 { return c.stats.Retired }

// PipelineDump renders the in-flight pipeline state for diagnostics (the
// watchdog's livelock report): ROB and fetch-queue depth, and the ROB
// head's execution state — the instruction whose stall is wedging the
// machine. Not a hot path; called once when a run is aborted.
func (c *CPU) PipelineDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fetch pc %#x (blocked=%v), fetchq %d/%d, rob %d/%d\n",
		c.pc, c.fetchBlocked, len(c.fetchQ), c.cfg.FetchQueue, len(c.rob), c.cfg.ROBSize)
	if len(c.rob) == 0 {
		b.WriteString("rob empty\n")
		return b.String()
	}
	// The head plus a few entries behind it: the head is what everything
	// else is waiting on.
	for i := 0; i < len(c.rob) && i < 4; i++ {
		u := c.rob[i]
		fmt.Fprintf(&b, "rob[%d] seq %d pc %#x  %s\n        %s\n",
			i, u.seq, u.pc, u.inst.String(), uopState(u))
	}
	return b.String()
}

// CheckQueues verifies the scheduling state against the ROB it shadows.
// The ROB holds no dead uop. Rebuilt from the ROB entries' own state, the
// issue queue and the execute queue must hold the same uops in the same
// order, and woken must be empty (issue consumes it every cycle). Every
// non-memory uop waiting to issue with an operand not done must sit on
// the wakeup list of exactly one such operand and nowhere else; wakeup
// lists hold nothing but those uops. Each rename map entry must name the
// register's youngest writer in the ROB, or be nil when none writes it.
// A core asleep at retire must still meet every condition it fell asleep
// on (retireBound), and its ROB head's operands must all be done. Invariant tests call it after every Tick;
// nil means consistent. Not a hot path.
func (c *CPU) CheckQueues() error {
	parkedOn := map[*uop]*uop{}
	for _, p := range c.rob {
		if p.dead {
			return fmt.Errorf("cpu: cycle %d: ROB holds dead uop seq %d", c.stats.Cycles, p.seq)
		}
		for w := p.waiters; w != nil; w = w.wnext {
			if w.dead {
				return fmt.Errorf("cpu: cycle %d: dead uop seq %d is parked on seq %d",
					c.stats.Cycles, w.seq, p.seq)
			}
			if q, dup := parkedOn[w]; dup {
				return fmt.Errorf("cpu: cycle %d: uop seq %d is parked on seq %d and seq %d",
					c.stats.Cycles, w.seq, q.seq, p.seq)
			}
			parkedOn[w] = p
		}
	}
	var iq, exq []*uop
	for _, u := range c.rob {
		p, parked := parkedOn[u]
		switch {
		case parked:
			if u.isMem() || !u.waitsToIssue() || p.done || !u.readsFrom(p) {
				return fmt.Errorf("cpu: cycle %d: uop seq %d (%s) is parked on seq %d, not one of its pending operands",
					c.stats.Cycles, u.seq, uopState(u), p.seq)
			}
		case u.waitsToIssue():
			if !u.isMem() && u.blocker() != nil {
				return fmt.Errorf("cpu: cycle %d: uop seq %d waits on seq %d but is not parked",
					c.stats.Cycles, u.seq, u.blocker().seq)
			}
			iq = append(iq, u)
		}
		if u.executing || u.walkStarted {
			exq = append(exq, u)
		}
	}
	if len(c.woken) != 0 {
		return fmt.Errorf("cpu: cycle %d: woken holds seqs %v after issue",
			c.stats.Cycles, seqs(c.woken))
	}
	if !slices.Equal(c.iq, iq) {
		return fmt.Errorf("cpu: cycle %d: issue queue holds seqs %v, the ROB implies %v",
			c.stats.Cycles, seqs(c.iq), seqs(iq))
	}
	if !slices.Equal(c.exq, exq) {
		return fmt.Errorf("cpu: cycle %d: execute queue holds seqs %v, the ROB implies %v",
			c.stats.Cycles, seqs(c.exq), seqs(exq))
	}
	if err := c.checkRename(); err != nil {
		return err
	}
	if c.asleep {
		if !c.retireBound() {
			return fmt.Errorf("cpu: cycle %d: asleep, but other stages can act: halted=%v "+
				"rob %d/%d iq %d woken %d exq %d fetchq %d/%d fetch-blocked=%v icache-miss=%v branches %d mem %d",
				c.stats.Cycles, c.halted, len(c.rob), c.cfg.ROBSize, len(c.iq), len(c.woken),
				len(c.exq), len(c.fetchQ), c.cfg.FetchQueue, c.fetchBlocked, c.icacheMiss, c.branchCount, c.memCount)
		}
		if h := c.rob[0]; h.blocker() != nil || h.isMem() && !h.addrReady {
			return fmt.Errorf("cpu: cycle %d: asleep on head seq %d (%s) whose operands or address are not ready",
				c.stats.Cycles, h.seq, uopState(h))
		}
	}
	return nil
}

// checkRename compares the rename maps with a scan of the ROB from its
// youngest entry that keeps the first writer of each register it meets.
func (c *CPU) checkRename() error {
	var ints [isa.NumRegs]*uop
	var fps [isa.NumFRegs]*uop
	var cc *uop
	for i := len(c.rob) - 1; i >= 0; i-- {
		u := c.rob[i]
		switch {
		case u.fl&flWritesFP != 0:
			fps[u.inst.Rd] = cmp.Or(fps[u.inst.Rd], u)
		case u.fl&flWritesInt != 0:
			ints[u.inst.Rd] = cmp.Or(ints[u.inst.Rd], u)
		}
		if u.fl&flWritesCC != 0 {
			cc = cmp.Or(cc, u)
		}
	}
	if ints != c.intRen || fps != c.fpRen || cc != c.ccRen {
		return fmt.Errorf("cpu: cycle %d: rename maps name seqs %v, fp %v, cc %v (0: none); the ROB's youngest writers are %v, fp %v, cc %v",
			c.stats.Cycles, seqs(c.intRen[:]), seqs(c.fpRen[:]), seqs([]*uop{c.ccRen}),
			seqs(ints[:]), seqs(fps[:]), seqs([]*uop{cc}))
	}
	return nil
}

// waitsToIssue states issue-stage membership from the uop's own state: a
// uop that joined at dispatch and is neither executing nor done, unless
// it is a translated retire-executed memory op (finished with issue).
// A non-memory one is in iq or parked, by whether an operand is pending.
func (u *uop) waitsToIssue() bool {
	if u.done || u.executing || !u.hasIssueStage() {
		return false
	}
	return !(u.isMem() && u.addrReady && !u.faulted && u.needsRetireExec())
}

// readsFrom reports whether p is one of u's source producers.
func (u *uop) readsFrom(p *uop) bool {
	return u.s1 == p || u.s2 == p || u.sd == p || u.ccProd == p
}

// seqs lists the uops' sequence numbers, 0 for a nil entry.
func seqs(q []*uop) []uint64 {
	s := make([]uint64, len(q))
	for i, u := range q {
		if u != nil {
			s[i] = u.seq
		}
	}
	return s
}

// uopState summarizes a uop's progress flags.
func uopState(u *uop) string {
	var f []string
	add := func(cond bool, s string) {
		if cond {
			f = append(f, s)
		}
	}
	add(u.issued, "issued")
	add(u.executing, fmt.Sprintf("executing(%d left)", u.remaining))
	add(u.done, "done")
	add(u.dead, "dead")
	add(u.faulted, "faulted")
	if u.isMem() {
		add(true, fmt.Sprintf("mem(va=%#x kind=%v)", u.va, u.kind))
		add(u.translating > 0, fmt.Sprintf("translating(%d left)", u.translating))
		add(u.addrReady, "addr-ready")
		add(u.memIssued, "mem-issued")
		add(u.memWait, "waiting-for-fill")
	}
	add(u.retPhase != 0, fmt.Sprintf("retire-phase %d", u.retPhase))
	if len(f) == 0 {
		return "waiting for operands/issue"
	}
	return strings.Join(f, ", ")
}
