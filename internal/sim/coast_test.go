package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"strings"
	"testing"

	"csbsim/internal/cpu"
	"csbsim/internal/device"
	"csbsim/internal/isa"
	"csbsim/internal/mem"
	"csbsim/internal/obs"
	"csbsim/internal/obs/counters"
)

// refTick advances m one cycle by calling every layer directly, in the
// order Machine.Tick runs them and behind the same idle gates, with no
// coasting: the reference TestCoastLockstep holds Machine.Tick to.
func refTick(m *Machine) {
	m.UB.TickCPU()
	m.CPU.Tick()
	m.Hier.TickCPU()
	m.cycle++
	m.busCountdown--
	if m.busCountdown == 0 {
		m.busCountdown = m.Cfg.Ratio
		m.Bus.Tick()
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
}

// twin is one side of a lockstep run: the machine plus everything it
// emits that Stats does not hold.
type twin struct {
	m       *Machine
	retired hash.Hash64
	nret    int
	hooks   strings.Builder // the periodic hook's log, when attached
	rec     *bytes.Buffer   // the flight recording, when attached
	nic     *device.NIC
	// sched, when set, runs before every tick (the timer scheduler).
	sched func()
	// kernel is the timer scheduler, when sched is its step.
	kernel *timerKernel
}

// lockstepCase builds one machine; it is called once per twin.
type lockstepCase struct {
	name  string
	build func(t *testing.T, tw *twin)
	// cycles runs a never-halting guest this long; zero runs to HALT and
	// until the machine settles.
	cycles uint64
}

func newTwin(t *testing.T, c lockstepCase) *twin {
	t.Helper()
	tw := &twin{retired: fnv.New64a()}
	c.build(t, tw)
	tw.m.AttachCounters()
	var b [8 * 9]byte
	tw.m.CPU.AttachRetire(func(ev cpu.RetireEvent) {
		for i, v := range [...]uint64{ev.Seq, ev.PC, ev.Result, ev.Addr, ev.FetchCycle,
			ev.DispatchCycle, ev.IssueCycle, ev.CompleteCycle, ev.Cycle} {
			binary.LittleEndian.PutUint64(b[8*i:], v)
		}
		tw.retired.Write(b[:])
		tw.nret++
	})
	return tw
}

// state renders everything the twins must agree on: Stats JSON with the
// registry snapshot (less the sim/effort counts, which measure how the
// cycles were run), the cycle, the console, the retire stream, the hook
// log, the flight recording and the NIC's packets with their stamps.
func (tw *twin) state(t *testing.T) string {
	t.Helper()
	st := tw.m.Stats()
	for name := range st.Counters.Counters {
		if strings.HasPrefix(name, "sim/effort/") {
			delete(st.Counters.Counters, name)
		}
	}
	js, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var nic []byte
	if tw.nic != nil {
		if nic, err = json.Marshal(tw.nic.Packets()); err != nil {
			t.Fatal(err)
		}
	}
	var recording string
	if tw.rec != nil {
		recording = tw.rec.String()
	}
	return fmt.Sprintf("cycle %d\nstats %s\nconsole %q\nretired %d %016x\nhooks %q\nrecording %q\nnic %s\n",
		tw.m.Cycle(), js, tw.m.Console(), tw.nret, tw.retired.Sum64(), tw.hooks.String(),
		recording, nic)
}

// loadSource loads src into tw's machine, warm, after cfg edits the
// default configuration and setup maps its I/O space.
func (tw *twin) loadSource(t *testing.T, cfg Config, src string, setup func(m *Machine)) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(m)
	}
	p, err := m.LoadSource("lockstep.s", src)
	if err != nil {
		t.Fatal(err)
	}
	m.WarmProgram(p)
	tw.m = m
}

// streamCase runs one §4.3.1 stream example with cfg edited by edit.
func streamCase(name, file string, kind mem.Kind, edit func(*Config)) lockstepCase {
	return lockstepCase{name: name, build: func(t *testing.T, tw *twin) {
		cfg := DefaultConfig()
		if edit != nil {
			edit(&cfg)
		}
		tw.loadSource(t, cfg, exampleSource(t, file), func(m *Machine) {
			m.MapRange(0x4000_0000, 1<<16, kind)
		})
	}}
}

// timerKernel is a two-process round-robin scheduler driven by a timer
// interrupt, making the calls internal/kernel makes (which this package
// cannot import): every quantum it posts a timer interrupt, whose hook
// saves the running process and restores the other, stalling the core
// for the context-switch cost; a halted process hands over for good.
type timerKernel struct {
	m         *Machine
	procs     [2]cpu.ArchState
	done      [2]bool
	cur       int
	nextTimer uint64
	quantum   uint64
}

func (k *timerKernel) dispatch(next int) {
	k.cur = next
	k.m.CPU.RestoreState(k.procs[next])
	k.m.CPU.Stall(k.m.Cfg.ContextSwitchCost)
	k.nextTimer = k.m.Cycle() + k.quantum
}

func (k *timerKernel) onInterrupt(cause uint64) bool {
	if cause != uint64(isa.CauseTimer) {
		return false
	}
	st := k.m.CPU.SaveState()
	st.PC = st.PR[isa.PRERPC]
	st.PR[isa.PRSTATUS] |= 1
	k.procs[k.cur] = st
	if other := 1 - k.cur; !k.done[other] {
		k.dispatch(other)
	} else {
		k.dispatch(k.cur)
	}
	return true
}

// step runs before each tick, as kernel.Run's loop does.
func (k *timerKernel) step() {
	if k.m.CPU.Halted() && k.m.CPU.Err() == nil && !k.done[k.cur] {
		k.done[k.cur] = true
		if other := 1 - k.cur; !k.done[other] {
			k.dispatch(other)
		}
	}
	if !k.m.CPU.Halted() && k.m.Cycle() >= k.nextTimer {
		k.m.CPU.Interrupt(uint64(isa.CauseTimer))
	}
}

// haltedNICStep drives a halted machine's NIC from the host, as a load
// generator's node hook does on a halted cluster client: every 997
// cycles it writes a two-word packet into the packet buffer and pushes
// its descriptor, and every 1301 cycles it delivers an inbound word.
// Each input lands while the machine coasts and must end the stretch.
func haltedNICStep(m *Machine, nic *device.NIC) {
	word := func(pa, v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		nic.WriteTarget(pa, b[:])
	}
	c := m.Cycle()
	if c%997 == 500 {
		word(nicBase+device.PacketBufBase, c)
		word(nicBase+device.PacketBufBase+8, ^c)
		word(nicBase+device.RegTxFIFO, 16<<48)
	}
	if c%1301 == 700 {
		nic.DeliverWords(0, []uint64{c})
	}
}

func lockstepCases(t *testing.T) []lockstepCase {
	var cases []lockstepCase
	seedCase := func(name string, seed int64, edit func(*Config)) lockstepCase {
		return lockstepCase{name: name, build: func(t *testing.T, tw *twin) {
			cfg := DefaultConfig()
			if edit != nil {
				edit(&cfg)
			}
			tw.loadSource(t, cfg, generate(seed, 0), func(m *Machine) {
				m.MapRange(diffIOBase, mem.PageSize, mem.KindUncached)
			})
		}}
	}
	for seed := int64(0); seed < 60; seed++ {
		cases = append(cases, seedCase(fmt.Sprintf("seed%d", seed), seed, nil))
	}
	// A 4-cycle L1 makes the seeds' cached swaps count down at retire.
	for seed := int64(0); seed < 20; seed++ {
		cases = append(cases, seedCase(fmt.Sprintf("seed%d@l1lat4", seed), seed,
			func(c *Config) { c.Caches.L1D.HitLatency = 4 }))
	}
	for _, ratio := range []int{1, 2, 3, 5, 6} {
		edit := func(c *Config) { c.Ratio = ratio }
		cases = append(cases,
			streamCase(fmt.Sprintf("csb@ratio%d", ratio), "csb_stores.s", mem.KindCombining, edit),
			streamCase(fmt.Sprintf("uncached@ratio%d", ratio), "uncached_stores.s", mem.KindUncached, edit))
	}
	cases = append(cases,
		streamCase("csb@split", "csb_stores.s", mem.KindCombining, splitBusAck),
		streamCase("csb@flushlat12", "csb_stores.s", mem.KindCombining, func(c *Config) { c.CPU.CSBLatency = 12 }),
		streamCase("uncached@split", "uncached_stores.s", mem.KindUncached, splitBusAck),
		lockstepCase{name: "ring_traffic", cycles: 60_000, build: func(t *testing.T, tw *twin) {
			tw.loadSource(t, DefaultConfig(), ringTraffic, func(m *Machine) {
				tw.nic = device.NewNIC(device.DefaultConfig(), nicBase)
				if err := m.AddNIC(tw.nic); err != nil {
					t.Fatal(err)
				}
				m.MapRange(nicBase, device.RegionSize, mem.KindUncached)
			})
		}},
		lockstepCase{name: "halted_nic", cycles: 40_000, build: func(t *testing.T, tw *twin) {
			tw.loadSource(t, DefaultConfig(), "\thalt\n", func(m *Machine) {
				tw.nic = device.NewNIC(device.DefaultConfig(), nicBase)
				if err := m.AddNIC(tw.nic); err != nil {
					t.Fatal(err)
				}
			})
			tw.sched = func() { haltedNICStep(tw.m, tw.nic) }
		}},
		lockstepCase{name: "timer_kernel", build: func(t *testing.T, tw *twin) {
			tw.loadSource(t, DefaultConfig(), exampleSource(t, "uncached_stores.s"),
				func(m *Machine) { m.MapRange(0x4000_0000, 1<<16, mem.KindUncached) })
			k := &timerKernel{m: tw.m, quantum: 331}
			entry := tw.m.CPU.State().PC
			for i := range k.procs {
				k.procs[i].PC = entry
				k.procs[i].PR[isa.PRPID] = uint64(i + 1)
				k.procs[i].PR[isa.PRSTATUS] = 1
			}
			tw.m.CPU.InterruptHook = k.onInterrupt
			k.dispatch(0)
			tw.sched = k.step
			tw.kernel = k
		}},
		lockstepCase{name: "uncached+hook7+record", build: func(t *testing.T, tw *twin) {
			tw.loadSource(t, DefaultConfig(), exampleSource(t, "uncached_stores.s"), func(m *Machine) {
				m.MapRange(0x4000_0000, 1<<16, mem.KindUncached)
			})
			m := tw.m
			if err := m.AttachPeriodic(7, func(cycle uint64) {
				s := m.CPU.Stats()
				fmt.Fprintf(&tw.hooks, "%d:%d/%d/%d ", cycle, s.Retired, s.FetchStalls, m.UB.Stats().StallFull)
			}); err != nil {
				t.Fatal(err)
			}
			// Every layer but sim/effort, whose counts differ by design:
			// the gauges are read at hook cycles inside coast stretches.
			reg := counters.NewRegistry()
			m.CPU.RegisterCounters("cpu", reg)
			m.Bus.RegisterCounters("bus", reg)
			m.Hier.RegisterCounters("cache", reg)
			m.UB.RegisterCounters("ub", reg)
			m.CSB.RegisterCounters("csb", reg)
			tw.rec = attachRecorder(t, m, reg, 250)
		}},
	)
	return cases
}

// TestCoastLockstep ticks one machine with Machine.Tick, which coasts
// through quiet stretches, and its twin with refTick, which never does,
// and compares their Stats (registry snapshot included), cycle, console,
// retire stream, hook log, flight recording and NIC packets every 1000
// cycles and at the end. Inputs: the differential seeds, both §4.3.1
// streams at bus ratios 1, 2, 3, 5 and 6 and on a split bus with
// turnaround and acknowledgement delay, the ring NIC guest, a halted
// machine whose NIC the host writes and delivers to, two processes under
// a timer-driven scheduler, and a stream with a periodic hook every 7
// cycles and a flight recorder rolling every 250. The uncached stream at the paper's
// ratio and the halted machine must coast through most of their cycles.
func TestCoastLockstep(t *testing.T) {
	for _, c := range lockstepCases(t) {
		a, b := newTwin(t, c), newTwin(t, c)
		const limit = 2_000_000
		for {
			if a.sched != nil {
				a.sched()
				b.sched()
			}
			n := a.m.Cycle()
			done := n >= limit
			if c.cycles != 0 {
				done = n >= c.cycles
			} else if a.m.CPU.Halted() && a.m.Settled() {
				done = true
			}
			if done || n%1000 == 0 {
				if sa, sb := a.state(t), b.state(t); sa != sb {
					t.Fatalf("%s: cycle %d: coasting machine\n%s\nreference\n%s", c.name, n, sa, sb)
				}
			}
			if done {
				break
			}
			a.m.Tick()
			refTick(b.m)
		}
		if a.m.Cycle() >= limit {
			t.Fatalf("%s: did not finish in %d cycles", c.name, limit)
		}
		if a.m.CPU.Err() != nil {
			t.Fatalf("%s: %v", c.name, a.m.CPU.Err())
		}
		e := a.m.Effort()
		halted := a.m.CPU.Stats().CPI[obs.CauseHalted]
		if e.FullTicks+e.CoastedCycles != a.m.Cycle() || e.CoastedCycles > e.AsleepCycles+halted {
			t.Errorf("%s: effort %+v over %d cycles is inconsistent", c.name, e, a.m.Cycle())
		}
		if (c.name == "uncached@ratio6" || c.name == "halted_nic") && 2*e.CoastedCycles <= a.m.Cycle() {
			t.Errorf("%s: coasted %d of %d cycles, want more than half", c.name, e.CoastedCycles, a.m.Cycle())
		}
		if c.name == "halted_nic" && (len(a.nic.Packets()) == 0 || a.nic.RxPending() == 0) {
			t.Errorf("%s: sent %d packets, %d words pending: the host inputs never landed",
				c.name, len(a.nic.Packets()), a.nic.RxPending())
		}
		t.Logf("%s: %d cycles, %d coasted", c.name, a.m.Cycle(), e.CoastedCycles)
	}
}
