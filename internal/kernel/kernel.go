// Package kernel is the minimal operating-system substrate the CSB
// experiments need: processes with distinct IDs and address spaces, a
// round-robin preemptive scheduler driven by a timer interrupt, and
// context switches that save and restore architectural state — but, like
// real hardware, never the CSB. An interrupted combining sequence is
// detected by the CSB's PID/hit-counter check and retried by software,
// which is precisely the non-blocking synchronization scheme of §3.2.
//
// The kernel itself runs at "firmware" level (Go code manipulating the
// saved register state) rather than as simulated instructions; its cost is
// modeled by the machine's ContextSwitchCost. DESIGN.md records this
// substitution.
package kernel

import (
	"fmt"

	"csbsim/internal/asm"
	"csbsim/internal/cpu"
	"csbsim/internal/isa"
	"csbsim/internal/mem"
	"csbsim/internal/sim"
)

// Process is one schedulable context.
type Process struct {
	PID      uint8
	Name     string
	State    cpu.ArchState
	Space    *mem.PageTable
	Started  bool
	Finished bool
	// Cycles is the CPU time the process has consumed.
	Cycles uint64
}

// Kernel schedules processes on a machine.
type Kernel struct {
	m       *sim.Machine
	procs   []*Process
	current int
	// Quantum is the time slice in CPU cycles.
	Quantum   uint64
	nextTimer uint64

	switches   uint64
	lastSwitch uint64
}

// New creates a kernel for the machine with the given time slice.
func New(m *sim.Machine, quantum uint64) *Kernel {
	k := &Kernel{m: m, Quantum: quantum, current: -1}
	m.CPU.InterruptHook = k.onInterrupt
	return k
}

// Switches reports how many context switches have occurred.
func (k *Kernel) Switches() uint64 { return k.switches }

// Processes returns the process table.
func (k *Kernel) Processes() []*Process { return k.procs }

// Spawn loads a program into memory and creates a process executing it
// under the given PID. Each process gets its own address space with the
// program identity-mapped cached; callers add device or combining mappings
// on the returned process's Space.
func (k *Kernel) Spawn(name string, pid uint8, prog *asm.Program) (*Process, error) {
	for _, p := range k.procs {
		if p.PID == pid {
			return nil, fmt.Errorf("kernel: pid %d already in use", pid)
		}
	}
	base, data, err := prog.Bytes()
	if err != nil {
		return nil, err
	}
	k.m.RAM.Write(base, data)
	space := k.m.AddressSpace(pid)
	span := uint64(len(data)) + 1<<20
	space.MapRange(base&^uint64(mem.PageSize-1), base&^uint64(mem.PageSize-1), span, mem.KindCached, true)

	p := &Process{PID: pid, Name: name, Space: space}
	p.State.PC = prog.Entry
	p.State.PR[isa.PRPID] = uint64(pid)
	p.State.PR[isa.PRSTATUS] = 1 // interrupts enabled
	k.procs = append(k.procs, p)
	return p, nil
}

// onInterrupt is the machine-level timer handler: it saves the interrupted
// process and dispatches the next runnable one.
func (k *Kernel) onInterrupt(cause uint64) bool {
	if cause != uint64(isa.CauseTimer) {
		return false
	}
	k.saveCurrent()
	k.dispatchNext()
	return true
}

func (k *Kernel) saveCurrent() {
	if k.current < 0 || k.current >= len(k.procs) {
		return
	}
	p := k.procs[k.current]
	if p.Finished {
		return
	}
	st := k.m.CPU.SaveState()
	// The resume PC was placed in ERPC by interrupt delivery.
	st.PC = st.PR[isa.PRERPC]
	st.PR[isa.PRSTATUS] |= 1 // re-enable interrupts for next run
	p.State = st
	p.Cycles += k.m.Cycle() - k.lastSwitch
}

// dispatchNext round-robins to the next unfinished process, restoring its
// state and address space and charging the context-switch cost.
func (k *Kernel) dispatchNext() bool {
	n := len(k.procs)
	prev := k.current
	for i := 1; i <= n; i++ {
		idx := (k.current + i) % n
		p := k.procs[idx]
		if p.Finished {
			continue
		}
		k.current = idx
		c := k.m.CPU
		c.RestoreState(p.State)
		c.SetPageTable(p.Space)
		// Re-dispatching the interrupted process is the kernel's fast
		// path: no register-file or address-space switch to pay for.
		if p.Started && idx != prev {
			c.Stall(k.m.Cfg.ContextSwitchCost)
		}
		p.Started = true
		k.switches++
		k.lastSwitch = k.m.Cycle()
		k.nextTimer = k.m.Cycle() + k.Quantum
		return true
	}
	return false
}

// Run schedules processes until all have exited (or maxCycles elapse). A
// process exits by executing HALT.
func (k *Kernel) Run(maxCycles uint64) error {
	if len(k.procs) == 0 {
		return fmt.Errorf("kernel: no processes")
	}
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
				return nil // all done
			}
		}
		if k.m.Cycle() >= k.nextTimer {
			k.m.CPU.Interrupt(uint64(isa.CauseTimer))
		}
		k.m.Tick()
		// Jump through the machine's quiet stretch, up to the next timer
		// cycle; a halted process is handed over on the next iteration.
		if c := k.m.Cycle(); c < k.nextTimer && !k.m.CPU.Halted() {
			i += k.m.CoastFor(min(maxCycles-i-1, k.nextTimer-c))
		}
	}
	return fmt.Errorf("kernel: cycle limit %d reached", maxCycles)
}
