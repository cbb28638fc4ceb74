// Package sim assembles the full machine of the paper's evaluation: the
// out-of-order core, split L1 / unified L2 caches, the uncached buffer,
// the conditional store buffer, and a multiplexed or split system bus
// clocked at a configurable fraction of the core frequency, with main
// memory and the memory-mapped network interface behind it.
package sim

import (
	"bytes"
	"fmt"

	"csbsim/internal/asm"
	"csbsim/internal/bus"
	"csbsim/internal/cache"
	"csbsim/internal/core"
	"csbsim/internal/cpu"
	"csbsim/internal/device"
	"csbsim/internal/fault"
	"csbsim/internal/isa"
	"csbsim/internal/mem"
	"csbsim/internal/obs"
	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/journey"
	"csbsim/internal/uncbuf"
)

// Config collects all machine parameters.
type Config struct {
	CPU    cpu.Config
	Caches cache.HierConfig
	Bus    bus.Config
	UB     uncbuf.Config
	CSB    core.Config
	// Ratio is the CPU-to-bus clock frequency ratio (6 in the paper's
	// main experiments: ~1 GHz core, >100 MHz bus).
	Ratio int
	// ContextSwitchCost models the kernel's save/restore path in CPU
	// cycles when the Go-level scheduler switches processes.
	ContextSwitchCost int
}

// DefaultConfig is the paper's base machine: 4-wide core, 64-byte lines,
// 8-byte multiplexed bus at ratio 6, non-combining uncached buffer, 64-byte
// single-entry CSB.
func DefaultConfig() Config {
	return Config{
		CPU:               cpu.DefaultConfig(),
		Caches:            cache.DefaultHierConfig(),
		Bus:               bus.DefaultConfig(),
		UB:                uncbuf.DefaultConfig(),
		CSB:               core.DefaultConfig(),
		Ratio:             6,
		ContextSwitchCost: 200,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if err := c.Caches.Validate(); err != nil {
		return err
	}
	if err := c.Bus.Validate(); err != nil {
		return err
	}
	if err := c.UB.Validate(); err != nil {
		return err
	}
	if err := c.CSB.Validate(); err != nil {
		return err
	}
	if c.Ratio <= 0 {
		return fmt.Errorf("sim: ratio must be positive")
	}
	if c.ContextSwitchCost < 0 {
		return fmt.Errorf("sim: negative context switch cost")
	}
	return nil
}

// Stats is a full-machine snapshot.
type Stats struct {
	Cycles    uint64
	BusCycles uint64
	CPU       cpu.Stats
	Bus       bus.Stats
	Caches    cache.HierStats
	UB        uncbuf.Stats
	CSB       core.Stats
	TLBHits   uint64
	TLBMisses uint64
	// Faults holds the injection counters when a fault injector is
	// attached (nil otherwise, and omitted from JSON).
	Faults *fault.Stats `json:",omitempty"`
	// Counters holds the unified-registry snapshot — every layer's named
	// counters plus the journey tracer's latency histograms — when a
	// registry is attached (nil otherwise, and omitted from JSON).
	Counters *counters.Snapshot `json:",omitempty"`
}

// Machine is one simulated node.
type Machine struct {
	Cfg    Config
	RAM    *mem.Memory
	Router *mem.Router
	Bus    *bus.Bus
	Hier   *cache.Hierarchy
	UB     *uncbuf.Buffer
	CSB    *core.CSB
	CPU    *cpu.CPU

	// nic is the machine's one memory-mapped device (AddNIC), ticked as
	// a bus master every bus cycle; nil when none is attached.
	nic    *device.NIC
	spaces map[uint8]*mem.PageTable

	// pidChanged and trap are the core's PIDChanged and TrapHook, built
	// once by New and reinstalled by Reset.
	pidChanged func(pid uint8)
	trap       func(code int64) bool

	// Optional rings of the last retired instructions and bus
	// transactions (obs.go), read by the watchdog's dump and the
	// recording's pipeline tail; nil when unattached.
	retired *ring[cpu.RetireEvent]
	busTail *ring[obs.BusEvent]

	// Optional robustness hooks: the fault injector (fault.go) and the
	// retire-progress watchdog (watchdog.go).
	faults *fault.Injector
	wd     *watchdogState

	// Optional unified counter registry and store-journey tracer
	// (journey.go); nil when unattached.
	counters *counters.Registry
	journeys *journey.Tracer

	// Optional periodic hooks (AttachPeriodic): each fires every
	// hook.every CPU cycles — the one cadence driver, which the flight
	// recorder rides. One len check per tick when unattached.
	periodicHooks []periodicHook

	console bytes.Buffer
	cycle   uint64
	// busCountdown reaches 0 every Ratio-th CPU cycle (a decrement and
	// compare instead of a 64-bit modulo in the hottest loop).
	busCountdown int

	// Coasting (see Tick and CoastFor): while m.cycle < coastEnd and the
	// core sleeps, the machine advances by O(1) coast steps; 0 when no
	// quiet stretch is open. skippedBus records that a coast step ticked
	// the bus without the NIC. fullTicks counts the Ticks that ran
	// every stage and coastSteps the coast steps (the sim/effort
	// counters).
	coastEnd   uint64
	skippedBus bool
	fullTicks  uint64
	coastSteps uint64

	// flushedAt is one past the cycle of the last flushObs (0: never).
	flushedAt uint64
}

// New builds a machine from the configuration.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ram := mem.NewMemory()
	router := mem.NewRouter(ram)
	b, err := bus.New(cfg.Bus, router)
	if err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(cfg.Caches)
	if err != nil {
		return nil, err
	}
	ub, err := uncbuf.New(cfg.UB)
	if err != nil {
		return nil, err
	}
	csb, err := core.New(cfg.CSB)
	if err != nil {
		return nil, err
	}
	c, err := cpu.New(cfg.CPU, hier, ub, csb, ram)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		Cfg: cfg, RAM: ram, Router: router, Bus: b,
		Hier: hier, UB: ub, CSB: csb, CPU: c,
		spaces:       make(map[uint8]*mem.PageTable),
		busCountdown: cfg.Ratio,
	}
	// Default address space for PID 0: created lazily by MapRange.
	m.spaces[0] = mem.NewPageTable()
	m.pidChanged = func(pid uint8) {
		if pt, ok := m.spaces[pid]; ok {
			c.SetPageTable(pt)
		}
	}
	m.trap = m.defaultTrap
	m.wireCPU()
	return m, nil
}

// wireCPU installs the machine's hooks and PID 0's page table on the
// core.
func (m *Machine) wireCPU() {
	m.CPU.SetPageTable(m.spaces[0])
	m.CPU.PIDChanged = m.pidChanged
	m.CPU.TrapHook = m.trap
}

// Reset returns m to the state New(cfg) would build, keeping the storage
// every layer has grown: the core's uop slabs, queues, predictor, TLB and
// decode cache, the caches' tag chunks, memory's pages, the buffers'
// entries and transactions. Each layer resets its own state (cpu, cache,
// mem, uncbuf, core and bus each have a Reset), so the work follows what
// the last run touched, not the machine's capacity; a layer whose shape
// cfg changes (a new BlockSize, line size or queue depth) gets new storage
// for that part alone. Everything attached after New is dropped: the NIC
// and its address region, bus observers, periodic hooks, the fault
// injector, watchdog, counters, journeys and rings, and the address
// spaces of every PID but 0, whose page table is emptied. A run in
// progress is abandoned: what it left in flight never completes. An
// invalid cfg is refused before anything is touched.
func (m *Machine) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	m.RAM.Reset()
	m.Router.Reset()
	m.Bus.Reset(cfg.Bus)
	m.Hier.Reset(cfg.Caches)
	m.UB.Reset(cfg.UB)
	m.CSB.Reset(cfg.CSB)
	m.CPU.Reset(cfg.CPU)
	pt := m.spaces[0]
	pt.Reset()
	clear(m.spaces)
	m.spaces[0] = pt
	clear(m.periodicHooks)
	*m = Machine{
		Cfg: cfg, RAM: m.RAM, Router: m.Router, Bus: m.Bus,
		Hier: m.Hier, UB: m.UB, CSB: m.CSB, CPU: m.CPU,
		spaces:        m.spaces,
		pidChanged:    m.pidChanged,
		trap:          m.trap,
		periodicHooks: m.periodicHooks[:0],
		busCountdown:  cfg.Ratio,
	}
	m.wireCPU()
	return nil
}

// defaultTrap implements the console conventions used by the examples:
// trap 1 prints the byte in %o0, trap 2 prints %o0 as a decimal, trap 3
// prints %o0 as hex. Other codes are unhandled.
func (m *Machine) defaultTrap(code int64) bool {
	r := m.CPU.State().R
	switch code {
	case 1:
		m.console.WriteByte(byte(r[8]))
		return true
	case 2:
		fmt.Fprintf(&m.console, "%d", int64(r[8]))
		return true
	case 3:
		fmt.Fprintf(&m.console, "%#x", r[8])
		return true
	}
	return false
}

// Console returns everything the program printed via traps.
func (m *Machine) Console() string { return m.console.String() }

// AddressSpace returns (creating if needed) the page table for a PID.
func (m *Machine) AddressSpace(pid uint8) *mem.PageTable {
	pt, ok := m.spaces[pid]
	if !ok {
		pt = mem.NewPageTable()
		m.spaces[pid] = pt
	}
	return pt
}

// MapRange identity-maps [va, va+size) with the given kind into PID 0's
// address space (writable).
func (m *Machine) MapRange(va, size uint64, kind mem.Kind) {
	m.AddressSpace(0).MapRange(va, va, size, kind, true)
}

// AddNIC attaches the machine's network interface: it registers the
// NIC's register and packet-buffer region at nic.Base() and ticks the NIC
// as a bus master (DMA) every bus cycle. A machine holds at most one NIC;
// a fault injector, counter registry or journey tracer attached before
// it is wired to it here, one attached after it by the Attach call.
func (m *Machine) AddNIC(nic *device.NIC) error {
	if m.nic != nil {
		return fmt.Errorf("sim: NIC already attached")
	}
	if err := m.Router.Register(nic.Base(), device.RegionSize, "nic", nic); err != nil {
		return err
	}
	m.endCoast()
	m.nic = nic
	nic.SetWake(m.endCoast)
	if m.faults != nil {
		nic.SetFaultHooks(m.faults.DeviceStall, m.faults.Backpressure)
	}
	if m.counters != nil {
		nic.RegisterCounters(nicCounterPrefix, m.counters)
	}
	if m.journeys != nil {
		nic.AttachTracer(m.journeys)
	}
	return nil
}

// Load writes an assembled program into RAM, identity-maps its span as
// cached memory, and resets the CPU to its entry point.
func (m *Machine) Load(p *asm.Program) error {
	base, data, err := p.Bytes()
	if err != nil {
		return err
	}
	m.RAM.Write(base, data)
	// Map a generous cached window around the program for stack and data
	// (programs that want uncached or combining space call MapRange).
	span := uint64(len(data)) + 1<<20
	m.MapRange(base&^uint64(mem.PageSize-1), span, mem.KindCached)
	m.CPU.Start(p.Entry)
	return nil
}

// LoadSource assembles and loads source text.
func (m *Machine) LoadSource(name, src string) (*asm.Program, error) {
	p, err := asm.Assemble(name, src)
	if err != nil {
		return nil, err
	}
	if err := m.Load(p); err != nil {
		return nil, err
	}
	return p, nil
}

// WarmProgram preloads all of a program's lines into the instruction and
// data caches, so measurements start from a warm state (the bandwidth
// figures assume the bus is idle except for the measured traffic).
func (m *Machine) WarmProgram(p *asm.Program) {
	base, data, err := p.Bytes()
	if err != nil {
		return
	}
	m.WarmCode(base, uint64(len(data)))
	m.WarmData(base, uint64(len(data)))
}

// WarmCode preloads the I-cache lines covering [addr, addr+size).
func (m *Machine) WarmCode(addr, size uint64) {
	ls := uint64(m.Hier.LineSize())
	for a := addr &^ (ls - 1); a < addr+size; a += ls {
		m.Hier.Warm(a, true)
	}
}

// WarmData preloads the D-cache lines covering [addr, addr+size).
func (m *Machine) WarmData(addr, size uint64) {
	ls := uint64(m.Hier.LineSize())
	for a := addr &^ (ls - 1); a < addr+size; a += ls {
		m.Hier.Warm(a, false)
	}
}

// Cycle returns the elapsed CPU cycles.
func (m *Machine) Cycle() uint64 { return m.cycle }

// Tick advances the machine one CPU cycle (and the bus every Ratio
// cycles). Bus-agent priority per bus cycle: CSB line bursts first (the
// low-latency I/O path), then the uncached buffer, then cache miss
// traffic, then the NIC's DMA engine.
//
// A Tick that leaves the core asleep at retire, or halted, computes a
// quiet horizon (quietHorizon): the first cycle at which any agent can
// change without outside input. Until then, Tick is CoastFor(1), which
// charges exactly what the skipped stages would have charged on that
// cycle, so every counter, hook and Stats read stays exact cycle by cycle
// (after gem5's O3 CPU, which deschedules an idle core and counts its
// idle cycles instead of ticking it). Loops that own the clock (Run,
// Drain, kernel.Run, the cluster's node windows) call CoastFor with the
// whole stretch instead. An input that can change the quiet agents wakes
// the core or calls endCoast: an interrupt, a kernel stall, a pipeline
// flush or state restore, a NIC write or delivery, attaching a hook or
// the NIC.
//
//csb:hotpath
//csb:worker ticked from the node's goroutine inside cluster lookahead windows
func (m *Machine) Tick() {
	if m.coastEnd != 0 {
		if m.CoastFor(1) != 0 {
			return
		}
		m.endCoast()
	}
	m.fullTicks++
	// The uncached buffer's send stage drains at core rate, before this
	// cycle's retiring stores arrive (so an idle system interface takes
	// the head entry immediately, bounding the combining window).
	m.UB.TickCPU()
	m.CPU.Tick()
	m.Hier.TickCPU()
	m.cycle++
	m.busCountdown--
	if m.busCountdown == 0 {
		m.busCountdown = m.Cfg.Ratio
		m.Bus.Tick()
		// Idle agents are skipped: each predicate is the same emptiness
		// check the agent's TickBus would bail out on. The NIC is always
		// ticked — it stamps incoming work with its last-ticked cycle, so
		// skipping it while "idle" would skew those timestamps.
		if !m.CSB.Drained() {
			m.CSB.TickBus(m.Bus)
		}
		if m.UB.HasWork() {
			m.UB.TickBus(m.Bus)
		}
		if m.Hier.NeedsBus() {
			m.Hier.TickBus(m.Bus)
		}
		if m.nic != nil {
			m.nic.TickBus(m.Bus)
		}
	}
	for i := range m.periodicHooks {
		h := &m.periodicHooks[i]
		h.countdown--
		if h.countdown == 0 {
			h.countdown = h.every
			h.fn(m.cycle)
		}
	}
	if m.CPU.Asleep() || m.CPU.Halted() {
		m.coastEnd = m.quietHorizon()
	}
}

// quietHorizon returns the cycle at which the next full Tick must run
// for a machine whose core is asleep or halted, or 0 when the next one
// must. The stretch before it is quiet: the core's head repeats a refused
// or counting retire step, or the core stays halted
// (cpu.CPU.QuietCycles), the uncached buffer's send stage and the cache
// hierarchy are idle, the CSB and the NIC are quiet, and the
// horizon stops before the bus tick that completes the transaction in
// flight or, with the bus idle, first lets a waiting buffer issue, and
// before the next periodic-hook firing. A fault injector forbids
// coasting: its hooks draw from the PRNG on every refused attempt.
//
//csb:hotpath
func (m *Machine) quietHorizon() uint64 {
	if m.faults != nil || !m.UB.Quiet() || !m.Hier.Idle() || !m.CSB.Quiet() ||
		(m.nic != nil && !m.nic.Quiet()) {
		return 0
	}
	n := m.CPU.QuietCycles()
	if n == 0 {
		return 0
	}
	end := ^uint64(0)
	if n != end {
		end = m.cycle + n
	}
	// The j-th bus tick from now runs in the Tick that starts at cycle
	// m.cycle + busCountdown - 1 + (j-1)*Ratio; the first unquiet one is
	// j = q+1.
	if q := m.Bus.QuietTicks(!m.CSB.Drained() || m.UB.HasWork()); q != ^uint64(0) {
		end = min(end, m.cycle+uint64(m.busCountdown)-1+q*uint64(m.Cfg.Ratio))
	}
	for i := range m.periodicHooks {
		end = min(end, m.cycle+m.periodicHooks[i].countdown-1)
	}
	if end <= m.cycle {
		return 0
	}
	return end
}

// CoastFor advances a machine inside an open quiet stretch by up to k
// cycles in O(1) and returns how many it charged: min(k, the cycles left
// before the horizon), or 0 when no stretch is open. The charge is what
// that many full Ticks would have made: the core's asleep cycles
// (cpu.CPU.Coast: the cycles, their CPI bucket, the fetch stalls, the
// refused step's uncached-buffer StallFull, CSB StallBusy or MembarStall
// count, and the head's countdown), the bus ticks the divider runs in
// them (their cycles and busy counts, keeping the divider phase; the
// horizon keeps completions and issues out of the stretch), and k off
// every periodic-hook countdown (none reaches zero before the horizon).
// The uncached buffer, the caches, the CSB and the NIC would do
// nothing and are not called.
//
//csb:hotpath
func (m *Machine) CoastFor(k uint64) uint64 {
	if m.coastEnd == 0 || m.cycle >= m.coastEnd || k == 0 || !(m.CPU.Asleep() || m.CPU.Halted()) {
		return 0
	}
	k = min(k, m.coastEnd-m.cycle)
	m.coastSteps++
	m.CPU.Coast(k)
	m.cycle += k
	// The bus ticks in the cycle that takes busCountdown to zero and every
	// Ratio cycles after it.
	if b := uint64(m.busCountdown); k < b {
		m.busCountdown -= int(k)
	} else {
		ratio := uint64(m.Cfg.Ratio)
		j, rest := uint64(1), k-b
		if rest >= ratio {
			j += rest / ratio
			rest %= ratio
		}
		m.busCountdown = m.Cfg.Ratio - int(rest)
		m.Bus.Skip(j)
		m.skippedBus = true
	}
	for i := range m.periodicHooks {
		m.periodicHooks[i].countdown -= k
	}
	return k
}

// endCoast closes an open quiet stretch: a NIC whose bus ticks were
// skipped notes the bus cycle it would have seen last. It is also the
// NIC's outside-input hook (NIC.SetWake), run before the input lands.
//
//csb:hotpath
func (m *Machine) endCoast() {
	m.coastEnd = 0
	if m.skippedBus {
		m.skippedBus = false
		if m.nic != nil {
			m.nic.SkipTo(m.Bus.Cycle())
		}
	}
}

// Effort counts the simulator's own work: Ticks that ran every stage,
// cycles coasted through in O(1), cycles the core spent asleep at retire,
// ticked or coasted, and steps — the calls that advanced the machine,
// full Ticks plus coast steps, each of which may charge many cycles. The
// counts are pure functions of the run and of how its loop steps it.
type Effort struct {
	FullTicks     uint64
	CoastedCycles uint64
	AsleepCycles  uint64
	Steps         uint64
}

// Effort returns the machine's effort counts (also registered as
// sim/effort/* by AttachCounters).
func (m *Machine) Effort() Effort {
	return Effort{
		FullTicks:     m.fullTicks,
		CoastedCycles: m.cycle - m.fullTicks,
		AsleepCycles:  m.CPU.AsleepCycles(),
		Steps:         m.fullTicks + m.coastSteps,
	}
}

// periodicHook is one AttachPeriodic registration.
type periodicHook struct {
	every     uint64
	countdown uint64
	fn        func(cycle uint64)
}

// AttachPeriodic installs a hook invoked every `every` CPU cycles with
// the current cycle — the machine's one cadence driver and its one
// periodic-observation path: the flight recorder (cmd/csbsim -record)
// rides it, reading every counter and gauge of the registry at the hook
// cycle, and several hooks may run side by side with independent
// cadences. Hooks fire in attach order; attach before running. Every
// hook also fires once more from FlushObs so abort paths emit their
// final window.
func (m *Machine) AttachPeriodic(every uint64, fn func(cycle uint64)) error {
	if every == 0 {
		return fmt.Errorf("sim: periodic interval must be positive")
	}
	if fn == nil {
		return fmt.Errorf("sim: nil periodic hook")
	}
	m.endCoast()
	m.periodicHooks = append(m.periodicHooks, periodicHook{every: every, countdown: every, fn: fn})
	return nil
}

// Run executes until HALT or maxCycles elapse. It returns an error if the
// CPU faulted, the NIC recorded an out-of-range guest access (a typed
// *device.AddrError reachable via errors.As), the armed watchdog detected
// retire-progress livelock (*WatchdogError with a diagnostic dump), or
// the cycle limit was hit. After each Tick it jumps through the open
// quiet stretch with CoastFor, stopping at maxCycles and before the
// watchdog's next check; a halted core is not coasted, so Run returns at
// the halt. Nothing a loop iteration checks can change inside a stretch.
func (m *Machine) Run(maxCycles uint64) error {
	for i := uint64(0); i < maxCycles; i++ {
		// NIC errors are checked before the halt exit: a guest that
		// provokes one and then halts must still fail the run.
		if m.nic != nil {
			if err := m.deviceErr(); err != nil {
				// Abort paths flush buffered observability state (the
				// final partial recording window) before surfacing the
				// error, so post-mortems see everything up to the abort.
				m.flushObs()
				return err
			}
		}
		if m.CPU.Halted() {
			return m.CPU.Err()
		}
		m.Tick()
		w := m.wd
		if w != nil {
			w.countdown--
			if w.countdown == 0 {
				w.countdown = w.window
				if r := m.CPU.Retired(); r == w.lastRetired && !m.CPU.Halted() {
					m.flushObs()
					return m.watchdogTrip()
				} else {
					w.lastRetired = r
				}
			}
		}
		if m.coastEnd != 0 && !m.CPU.Halted() {
			k := maxCycles - i - 1
			if w != nil {
				k = min(k, w.countdown-1)
			}
			k = m.CoastFor(k)
			i += k
			if w != nil {
				w.countdown -= k
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

// Drain runs bus cycles until all buffers, the NIC and the bus are idle.
// Like Run, it jumps through quiet stretches, which cannot settle the
// machine.
func (m *Machine) Drain(maxCycles uint64) error {
	for i := uint64(0); i < maxCycles; i++ {
		if m.Settled() {
			return m.deviceErr()
		}
		m.Tick()
		if m.coastEnd != 0 && !m.Settled() {
			i += m.CoastFor(maxCycles - i - 1)
		}
	}
	if m.wd != nil {
		// The watchdog is armed: attach the diagnostic dump, so a drain
		// that never settles is as debuggable as a retire livelock.
		return fmt.Errorf("sim: drain did not complete in %d cycles\n%s", maxCycles, m.DiagnosticDump())
	}
	return fmt.Errorf("sim: drain did not complete in %d cycles", maxCycles)
}

// Settled reports whether every asynchronous engine has gone quiet: the
// uncached buffer and CSB are empty, the bus and cache hierarchy are idle,
// and the NIC, if any, has no pending work. A halted CPU plus Settled means further
// ticks cannot change architectural state — the cluster scheduler uses
// this to freeze finished nodes without dropping in-flight stores.
//
//csb:hotpath
func (m *Machine) Settled() bool {
	return m.UB.Empty() && m.CSB.Drained() && m.Bus.Idle() && m.Hier.Idle() && (m.nic == nil || m.nic.Idle())
}

// Stats snapshots all counters.
func (m *Machine) Stats() Stats {
	s := Stats{
		Cycles:    m.cycle,
		BusCycles: m.Bus.Cycle(),
		CPU:       m.CPU.Stats(),
		Bus:       m.Bus.Stats(),
		Caches:    m.Hier.Stats(),
		UB:        m.UB.Stats(),
		CSB:       m.CSB.Stats(),
		TLBHits:   m.CPU.TLB().Hits,
		TLBMisses: m.CPU.TLB().Misses,
	}
	if m.faults != nil {
		fs := m.faults.Stats()
		s.Faults = &fs
	}
	if m.counters != nil {
		s.Counters = m.counters.Snapshot()
	}
	return s
}

// Registers returns the committed integer register file (test helper).
func (m *Machine) Registers() [isa.NumRegs]uint64 { return m.CPU.State().R }

// Reg returns one committed integer register by assembler name ("%o0").
func (m *Machine) Reg(name string) (uint64, error) {
	r, err := isa.ParseReg(name)
	if err != nil {
		return 0, err
	}
	return m.CPU.State().R[r], nil
}
