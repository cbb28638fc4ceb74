package kernel

import (
	"encoding/json"
	"fmt"
	"testing"

	"csbsim/internal/isa"
	"csbsim/internal/mem"
)

// refRun is Run without its jumps: the scheduler's checks before every
// machine Tick.
func (k *Kernel) refRun(maxCycles uint64) error {
	if !k.dispatchNext() {
		return fmt.Errorf("kernel: nothing runnable")
	}
	for i := uint64(0); i < maxCycles; i++ {
		if k.m.CPU.Halted() {
			if err := k.m.CPU.Err(); err != nil {
				return fmt.Errorf("kernel: process %q: %w", k.procs[k.current].Name, err)
			}
			p := k.procs[k.current]
			p.Finished = true
			p.Cycles += k.m.Cycle() - k.lastSwitch
			if !k.dispatchNext() {
				return nil
			}
		}
		if k.m.Cycle() >= k.nextTimer {
			k.m.CPU.Interrupt(uint64(isa.CauseTimer))
		}
		k.m.Tick()
	}
	return fmt.Errorf("kernel: cycle limit %d reached", maxCycles)
}

// storeProg streams n doubleword stores through uncached space at addr,
// so the core sleeps at retire behind a full uncached buffer, then halts.
func storeProg(org uint64, n int, addr uint64) string {
	return fmt.Sprintf(`
	.org %#x
	set %#x, %%o1
	set %d, %%g2
loop:
	stx %%g2, [%%o1]
	add %%o1, 8, %%o1
	subcc %%g2, 1, %%g2
	bnz loop
	membar
	halt
`, org, addr, n)
}

// TestRunJumpMatchesStepping runs two uncached store streams under the
// scheduler at several quanta through Run, which jumps through the
// machine's quiet stretches up to the next timer cycle, and through a
// per-cycle loop, and requires the same machine Stats, per-process
// cycles, switch count and result — with fewer steps than cycles.
func TestRunJumpMatchesStepping(t *testing.T) {
	run := func(quantum uint64, jump bool) (string, uint64, uint64) {
		m := newMachine(t)
		k := New(m, quantum)
		for i, org := range []uint64{0x10000, 0x90000} {
			p, err := k.Spawn(fmt.Sprintf("p%d", i), uint8(i+1), mustProg(t, storeProg(org, 600, 0x4000_0000+uint64(i)<<16)))
			if err != nil {
				t.Fatal(err)
			}
			p.Space.MapRange(0x4000_0000, 0x4000_0000, 1<<17, mem.KindUncached, true)
		}
		var err error
		if jump {
			err = k.Run(10_000_000)
		} else {
			err = k.refRun(10_000_000)
		}
		js, jerr := json.Marshal(m.Stats())
		if jerr != nil {
			t.Fatal(jerr)
		}
		out := fmt.Sprintf("err %v\nswitches %d\nstats %s\n", err, k.Switches(), js)
		for _, p := range k.Processes() {
			out += fmt.Sprintf("%s finished=%v cycles=%d\n", p.Name, p.Finished, p.Cycles)
		}
		return out, m.Cycle(), m.Effort().Steps
	}
	for _, quantum := range []uint64{331, 997, 2000} {
		got, cycles, steps := run(quantum, true)
		want, _, _ := run(quantum, false)
		if got != want {
			t.Fatalf("quantum %d: Run\n%s\nper-cycle loop\n%s", quantum, got, want)
		}
		if steps >= cycles {
			t.Errorf("quantum %d: %d steps over %d cycles, want fewer", quantum, steps, cycles)
		}
		t.Logf("quantum %d: %d steps over %d cycles", quantum, steps, cycles)
	}
}
