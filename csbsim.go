// Package csbsim is the public API of the conditional store buffer
// reproduction: a cycle-level simulator of an out-of-order processor with
// a software-controlled conditional store buffer (CSB), as described in
// "Improving I/O Performance with a Conditional Store Buffer" (Schaelicke
// & Davis, MICRO 1998).
//
// The package is a thin facade over the internal packages:
//
//   - Build a Machine from a Config (DefaultConfig matches the paper's
//     evaluation machine: 4-wide OOO core, 64-byte lines, 8-byte
//     multiplexed bus at a 6:1 clock ratio).
//   - Assemble SV9L (SPARC-V9-flavored) assembly with Assemble, load it
//     with Machine.Load, and Run.
//   - Map uncached or combining (CSB) address space with Machine.MapRange;
//     stores to combining pages are captured by the CSB and a swap to
//     them is the conditional flush, exactly as in the paper's listing.
//   - Add devices (a NIC with a descriptor FIFO and DMA engine is
//     provided), spawn preemptively-scheduled processes with a Kernel,
//     and read everything back through Stats.
//   - Regenerate any of the paper's figures with Figure / AllFigures.
//   - Observe execution: Stats.CPU.CPI is a stall-attribution stack whose
//     buckets sum to the cycle count; Machine.AttachCounters registers
//     every layer's counters and gauges (buffer occupancies among them),
//     which cmd/csbsim -record rolls into a windowed flight recording,
//     ending with the last retired instructions and bus transactions
//     (Machine.AttachPipeline), that cmd/csbrec reads and draws.
//   - Prove recovery paths: Machine.AttachFaults threads a deterministic
//     seed-driven fault injector (bus NACKs, device stalls, FIFO
//     backpressure, dropped/delayed conditional-flush acks, buffer
//     pressure) through the whole machine, and Machine.SetWatchdog arms a
//     retire-progress watchdog that aborts a livelocked run with a
//     diagnostic dump (internal/sim's FuzzFaultRecovery checks recovery).
//
// See the examples directory for runnable walkthroughs and EXPERIMENTS.md
// for the measured reproduction of every figure.
package csbsim

import (
	"io"

	"csbsim/internal/asm"
	"csbsim/internal/bench"
	"csbsim/internal/bus"
	"csbsim/internal/cache"
	"csbsim/internal/core"
	"csbsim/internal/cpu"
	"csbsim/internal/device"
	"csbsim/internal/fault"
	"csbsim/internal/kernel"
	"csbsim/internal/mem"
	"csbsim/internal/obs"
	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/journey"
	"csbsim/internal/sim"
	"csbsim/internal/trace"
	"csbsim/internal/uncbuf"
)

// Machine is the simulated node: core, caches, uncached buffer, CSB, bus,
// memory and devices.
type Machine = sim.Machine

// Config collects every machine parameter.
type Config = sim.Config

// Stats is a full-machine counter snapshot.
type Stats = sim.Stats

// Program is an assembled SV9L program.
type Program = asm.Program

// Kernel is the minimal preemptive scheduler used for multi-process CSB
// experiments.
type Kernel = kernel.Kernel

// Process is one schedulable context under a Kernel.
type Process = kernel.Process

// NIC is the simulated network interface (descriptor FIFO + DMA engine +
// burst-capable packet buffer).
type NIC = device.NIC

// NICConfig parameterizes the NIC.
type NICConfig = device.Config

// Packet is one transmitted packet as observed on the simulated wire.
type Packet = device.Packet

// FigureResult is a regenerated figure: labeled series of measured values.
type FigureResult = bench.Result

// Memory page kinds, selecting the access policy per page (paper §3.1).
const (
	KindCached    = mem.KindCached
	KindUncached  = mem.KindUncached
	KindCombining = mem.KindCombining
)

// Bus models.
const (
	BusMultiplexed = bus.Multiplexed
	BusSplit       = bus.Split
)

// NIC register offsets.
const (
	NICRegTxFIFO     = device.RegTxFIFO
	NICRegDMA        = device.RegDMA
	NICRegStatus     = device.RegStatus
	NICRegIntAck     = device.RegIntAck
	NICPacketBufBase = device.PacketBufBase
	NICRegionSize    = device.RegionSize
)

// DefaultConfig returns the paper's evaluation machine.
func DefaultConfig() Config { return sim.DefaultConfig() }

// NewMachine builds a machine.
func NewMachine(cfg Config) (*Machine, error) { return sim.New(cfg) }

// Assemble translates SV9L assembly source into a Program.
func Assemble(name, src string) (*Program, error) { return asm.Assemble(name, src) }

// NewKernel creates a kernel scheduling processes on m with the given time
// slice in CPU cycles.
func NewKernel(m *Machine, quantum uint64) *Kernel { return kernel.New(m, quantum) }

// NewNIC creates a NIC claiming [base, base+NICRegionSize); register it
// with Machine.AddDevice.
func NewNIC(cfg NICConfig, base uint64) *NIC { return device.NewNIC(cfg, base) }

// DefaultNICConfig returns a 16-deep-FIFO NIC with 64-byte DMA bursts.
func DefaultNICConfig() NICConfig { return device.DefaultConfig() }

// Figure regenerates one paper figure or extension by ID: "3a".."3i",
// "4a".."4e", "5a", "5b", or the extensions "X1", "X2", "X2L", "X4",
// "X6", "X8".
func Figure(id string) (FigureResult, error) { return bench.ByID(id) }

// AllFigures regenerates every figure of the paper's evaluation section.
func AllFigures() ([]FigureResult, error) { return bench.All() }

// SetFigureWorkers sets how many measurement points figure regeneration
// runs concurrently (the csbfig -j flag). Each point is an isolated
// machine, so results are byte-identical at any worker count. n <= 0
// restores the GOMAXPROCS default.
func SetFigureWorkers(n int) { bench.SetWorkers(n) }

// FigureWorkers reports the current figure-regeneration parallelism.
func FigureWorkers() int { return bench.Workers() }

// FormatFigure renders a figure as an aligned text table.
func FormatFigure(r FigureResult) string { return bench.Format(r) }

// FormatFigureCSV renders a figure as CSV.
func FormatFigureCSV(r FigureResult) string { return bench.FormatCSV(r) }

// FormatFigureBars renders a figure as grouped ASCII bars, the closest
// terminal rendering of the paper's bar-group figures.
func FormatFigureBars(r FigureResult) string { return bench.FormatBars(r) }

// TraceRecorder records retired-instruction traces from a machine's CPU.
type TraceRecorder = trace.Recorder

// NewTrace creates a recorder streaming formatted events to w; attach
// it with rec.Attach(m.CPU). Recorders register as retire observers, so
// they coexist with any other attached hooks.
func NewTrace(w io.Writer) *TraceRecorder { return trace.New(w) }

// CPIStack is the stall-attribution stack carried in Stats.CPU.CPI: every
// cycle is charged to exactly one cause, so the buckets sum to the cycle
// count. Format renders it as a table; it marshals to JSON as an object
// keyed by bucket name.
type CPIStack = obs.CPIStack

// StallCause labels one CPI stack bucket.
type StallCause = obs.StallCause

// JourneyTracer follows each uncached store, CSB store and NIC transmit
// descriptor through the memory system after retire, stamping a cycle
// timestamp at every hop and folding per-hop latencies into fixed-bucket
// histograms. Attach with Machine.AttachJourneys before running; a
// flight recorder given it with AddJourneys writes its slowest and
// retained journeys into the recording (read by `csbrec journeys`).
type JourneyTracer = journey.Tracer

// Journey is one traced store or descriptor: per-hop cycle stamps plus
// coalescing/abort flags.
type Journey = journey.Journey

// CounterRegistry is the unified named-counter registry every simulated
// layer registers into (Machine.AttachCounters); its snapshot appears in
// Stats.Counters and renders uniformly in the report.
type CounterRegistry = counters.Registry

// CounterSnapshot is a point-in-time reading of every registered counter
// and gauge and latency-histogram summary.
type CounterSnapshot = counters.Snapshot

// FaultConfig enables and tunes the deterministic fault-injection
// classes: bus transaction NACKs, device latency bursts, NIC FIFO
// backpressure windows, delayed and dropped conditional-flush
// acknowledgements, and CSB/uncached-buffer capacity pressure. All rates
// are per-FaultRateScale probabilities. Attach with Machine.AttachFaults
// before running.
type FaultConfig = fault.Config

// FaultInjector draws the seed-deterministic fault schedule: the same
// seed, configuration and guest program reproduce a run bit-identically,
// report included.
type FaultInjector = fault.Injector

// FaultStats counts what an attached injector actually did; it also
// appears in Stats.Faults and the Report output.
type FaultStats = fault.Stats

// FaultRateScale is the denominator of all fault rates: a rate of r
// means an r-in-FaultRateScale chance at each opportunity.
const FaultRateScale = fault.RateScale

// WatchdogError is returned by Machine.Run when the armed watchdog
// (Machine.SetWatchdog) sees no instruction retire for a whole window;
// its Dump field carries the full diagnostic state at the trip.
type WatchdogError = sim.WatchdogError

// DeviceAddrError is recorded by a device when a guest access (a
// transmit descriptor or DMA transfer) points outside its valid region;
// Machine.Run surfaces it as a typed failure reachable via errors.As.
type DeviceAddrError = device.AddrError

// DefaultFaultConfig returns the standard campaign mix: every fault
// class enabled at a rate that exercises all recovery paths in a few
// thousand cycles without livelocking the guest.
func DefaultFaultConfig() FaultConfig { return fault.DefaultConfig() }

// ParseFaultSpec parses a command-line fault specification: "default",
// or a comma-separated key=value list such as "busnack=64,seed=3" (see
// FaultSpecKeys for the recognized keys).
func ParseFaultSpec(spec string) (FaultConfig, error) { return fault.ParseSpec(spec) }

// FaultSpecKeys lists the keys ParseFaultSpec recognizes, sorted.
func FaultSpecKeys() []string { return fault.SpecKeys() }

// Compile-time checks that the re-exported constructors stay wired to
// compatible types.
var (
	_ = cpu.DefaultConfig
	_ = cache.DefaultHierConfig
	_ = uncbuf.DefaultConfig
	_ = core.DefaultConfig
)
