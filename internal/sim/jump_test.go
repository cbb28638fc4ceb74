package sim

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"csbsim/internal/mem"
)

// refRun is Machine.Run as a per-cycle loop: the same device-error, halt,
// watchdog and cycle-limit checks around every Tick, with no jumps. It is
// the reference TestJumpLockstep holds Run's jumps to.
func refRun(m *Machine, maxCycles uint64) error {
	for i := uint64(0); i < maxCycles; i++ {
		if m.nic != nil {
			if err := m.deviceErr(); err != nil {
				m.flushObs()
				return err
			}
		}
		if m.CPU.Halted() {
			return m.CPU.Err()
		}
		m.Tick()
		if w := m.wd; w != nil {
			w.countdown--
			if w.countdown == 0 {
				w.countdown = w.window
				r := m.CPU.Retired()
				if r == w.lastRetired && !m.CPU.Halted() {
					m.flushObs()
					return m.watchdogTrip()
				}
				w.lastRetired = r
			}
		}
	}
	if m.nic != nil {
		if err := m.deviceErr(); err != nil {
			m.flushObs()
			return err
		}
	}
	if m.CPU.Halted() {
		return m.CPU.Err()
	}
	return fmt.Errorf("sim: cycle limit %d reached at pc %#x", maxCycles, m.CPU.State().PC)
}

// refDrain is Machine.Drain as a per-cycle loop.
func refDrain(m *Machine, maxCycles uint64) error {
	for i := uint64(0); i < maxCycles; i++ {
		if m.Settled() {
			return m.deviceErr()
		}
		m.Tick()
	}
	return fmt.Errorf("sim: drain did not complete in %d cycles", maxCycles)
}

// inStretch reports whether m stopped inside an open quiet stretch: a
// jump that ran on would have coasted the next cycle.
func inStretch(m *Machine) bool {
	return m.coastEnd != 0 && m.cycle < m.coastEnd && (m.CPU.Asleep() || m.CPU.Halted())
}

// effortLines strips the sim/effort/steps counter from a rendered error:
// the watchdog's diagnostic dump carries the registry, and steps are the
// one count a jump changes.
var effortLines = regexp.MustCompile(`(?m)^.*sim/effort/steps.*\n`)

// errText renders err for comparison.
func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return effortLines.ReplaceAllString(err.Error(), "")
}

// runCase runs a case without a scheduler through run and drain (Run and
// Drain, or their per-cycle references): a never-halting guest for its
// cycles, any other to HALT and then until the machine settles.
func runCase(tw *twin, c lockstepCase, run, drain func(*Machine, uint64) error) string {
	const limit = 2_000_000
	if c.cycles != 0 {
		return errText(run(tw.m, c.cycles))
	}
	if err := run(tw.m, limit); err != nil {
		return errText(err)
	}
	return errText(drain(tw.m, limit))
}

// schedNext returns, for a case with a scheduler, the first cycle at or
// after the machine's at which the scheduler acts, so a jump must stop
// before it: the timer kernel's next timer (now, when a process has just
// halted and must be handed over), the halted NIC's next host input.
func schedNext(tw *twin, c lockstepCase) uint64 {
	m := tw.m
	switch c.name {
	case "timer_kernel":
		if m.CPU.Halted() {
			return m.Cycle()
		}
		return max(m.Cycle(), tw.kernel.nextTimer)
	case "halted_nic":
		for n := m.Cycle(); ; n++ {
			if n%997 == 500 || n%1301 == 700 {
				return n
			}
		}
	}
	panic("no scheduler bound for " + c.name)
}

// runSched runs a case with a scheduler the way kernel.Run and the
// cluster's node windows do: the scheduler before every step, and with
// jump set, a CoastFor after each Tick up to the scheduler's next action.
func runSched(tw *twin, c lockstepCase, jump bool) string {
	m := tw.m
	for i := 0; ; i++ {
		tw.sched()
		if c.cycles != 0 && m.Cycle() >= c.cycles || c.cycles == 0 && m.CPU.Halted() && m.Settled() {
			return errText(m.CPU.Err())
		}
		if i > 2_000_000 {
			return "no end"
		}
		m.Tick()
		if !jump {
			continue
		}
		end := schedNext(tw, c)
		if c.cycles != 0 {
			end = min(end, c.cycles)
		}
		if end > m.Cycle() {
			m.CoastFor(end - m.Cycle())
		}
	}
}

// TestJumpLockstep runs every TestCoastLockstep case twice, once through
// loops that jump through quiet stretches with CoastFor — Run and Drain,
// or for the timer kernel and the halted NIC a scheduler loop that jumps
// up to the scheduler's next action — and once through per-cycle Tick
// loops with the same limit and watchdog semantics, and compares Stats
// (registry included, less the sim/effort counts), the cycle, the
// console, the retire stream, the hook log, the flight recording, the NIC's
// packets and the error text. Each case without a scheduler runs again
// with a 37-cycle watchdog, and the uncached stream runs to a range of
// cycle limits; at least one watchdog trip and one cycle limit must fall
// inside a quiet stretch, where a jump that ignored them would coast on.
func TestJumpLockstep(t *testing.T) {
	var wdInStretch, limitInStretch int
	check := func(name string, a, b *twin, ea, eb string) {
		t.Helper()
		if sa, sb := a.state(t)+"err "+ea, b.state(t)+"err "+eb; sa != sb {
			t.Fatalf("%s: jumping run\n%s\nper-cycle run\n%s", name, sa, sb)
		}
		if a.m.Effort().Steps > b.m.Effort().Steps {
			t.Errorf("%s: the jumping run took %d steps, the per-cycle one %d",
				name, a.m.Effort().Steps, b.m.Effort().Steps)
		}
	}
	for _, c := range lockstepCases(t) {
		a, b := newTwin(t, c), newTwin(t, c)
		if a.sched != nil {
			check(c.name, a, b, runSched(a, c, true), runSched(b, c, false))
		} else {
			check(c.name, a, b, runCase(a, c, (*Machine).Run, (*Machine).Drain), runCase(b, c, refRun, refDrain))
		}
		if s := a.m.Effort().Steps; (c.name == "uncached@ratio6" || c.name == "halted_nic") && 2*s > a.m.Cycle() {
			t.Errorf("%s: %d steps over %d cycles, want most cycles jumped", c.name, s, a.m.Cycle())
		}
		if a.sched != nil {
			continue
		}

		a, b = newTwin(t, c), newTwin(t, c)
		for _, tw := range []*twin{a, b} {
			if err := tw.m.SetWatchdog(37); err != nil {
				t.Fatal(err)
			}
		}
		ea, eb := runCase(a, c, (*Machine).Run, (*Machine).Drain), runCase(b, c, refRun, refDrain)
		check(c.name+"+watchdog", a, b, ea, eb)
		if inStretch(a.m) && strings.HasPrefix(ea, "sim: watchdog") {
			wdInStretch++
		}
	}
	unc := streamCase("uncached", "uncached_stores.s", mem.KindUncached, nil)
	for limit := uint64(1500); limit < 1540; limit++ {
		a, b := newTwin(t, unc), newTwin(t, unc)
		ea, eb := errText(a.m.Run(limit)), errText(refRun(b.m, limit))
		check(fmt.Sprintf("uncached limit %d", limit), a, b, ea, eb)
		if inStretch(a.m) {
			limitInStretch++
		}
	}
	if wdInStretch == 0 || limitInStretch == 0 {
		t.Errorf("%d watchdog trips and %d cycle limits fell inside a quiet stretch, want some of each",
			wdInStretch, limitInStretch)
	}
	t.Logf("%d watchdog trips and %d cycle limits inside a quiet stretch", wdInStretch, limitInStretch)
}
