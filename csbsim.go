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
//   - Attach the network interface (a descriptor FIFO, a DMA engine and a
//     burst-capable packet buffer) with Machine.AddNIC, spawn
//     preemptively-scheduled processes with a Kernel, and read everything
//     back through Machine.Stats.
//   - Regenerate any of the paper's figures with Figure / AllFigures.
//   - Observe execution: Machine.Stats().CPU.CPI is a stall-attribution
//     stack whose buckets sum to the cycle count; Machine.AttachCounters
//     registers every layer's counters and gauges (buffer occupancies
//     among them), which cmd/csbsim -record rolls into a windowed flight
//     recording, ending with the last retired instructions and bus
//     transactions (Machine.AttachPipeline), that cmd/csbrec reads and
//     draws.
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
	"csbsim/internal/asm"
	"csbsim/internal/bench"
	"csbsim/internal/device"
	"csbsim/internal/fault"
	"csbsim/internal/kernel"
	"csbsim/internal/mem"
	"csbsim/internal/sim"
)

// Machine is the simulated node: core, caches, uncached buffer, CSB, bus,
// memory and the NIC.
type Machine = sim.Machine

// Config collects every machine parameter.
type Config = sim.Config

// Program is an assembled SV9L program.
type Program = asm.Program

// Kernel is the minimal preemptive scheduler used for multi-process CSB
// experiments.
type Kernel = kernel.Kernel

// NIC is the simulated network interface (descriptor FIFO + DMA engine +
// burst-capable packet buffer).
type NIC = device.NIC

// NICConfig parameterizes the NIC.
type NICConfig = device.Config

// FigureResult is a regenerated figure: labeled series of measured values.
type FigureResult = bench.Result

// Memory page kinds, selecting the access policy per page (paper §3.1).
const (
	KindCached    = mem.KindCached
	KindUncached  = mem.KindUncached
	KindCombining = mem.KindCombining
)

// NICPacketBufBase is the NIC's packet buffer offset from its base.
const NICPacketBufBase = device.PacketBufBase

// DefaultConfig returns the paper's evaluation machine.
func DefaultConfig() Config { return sim.DefaultConfig() }

// NewMachine builds a machine.
func NewMachine(cfg Config) (*Machine, error) { return sim.New(cfg) }

// Assemble translates SV9L assembly source into a Program.
func Assemble(name, src string) (*Program, error) { return asm.Assemble(name, src) }

// NewKernel creates a kernel scheduling processes on m with the given time
// slice in CPU cycles.
func NewKernel(m *Machine, quantum uint64) *Kernel { return kernel.New(m, quantum) }

// NewNIC creates a NIC whose registers and packet buffer start at base;
// attach it with Machine.AddNIC.
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

// FormatFigure renders a figure as an aligned text table.
func FormatFigure(r FigureResult) string { return bench.Format(r) }

// FormatFigureCSV renders a figure as CSV.
func FormatFigureCSV(r FigureResult) string { return bench.FormatCSV(r) }

// FormatFigureBars renders a figure as grouped ASCII bars, the closest
// terminal rendering of the paper's bar-group figures.
func FormatFigureBars(r FigureResult) string { return bench.FormatBars(r) }

// FaultConfig enables and tunes the deterministic fault-injection
// classes: bus transaction NACKs, device latency bursts, NIC FIFO
// backpressure windows, delayed and dropped conditional-flush
// acknowledgements, and CSB/uncached-buffer capacity pressure. A rate of
// r is an r-in-1024 chance at each opportunity. Attach with Machine.AttachFaults
// before running.
type FaultConfig = fault.Config

// ParseFaultSpec parses a command-line fault specification: "default",
// or a comma-separated key=value list such as "busnack=64,seed=3" (see
// FaultSpecKeys for the recognized keys).
func ParseFaultSpec(spec string) (FaultConfig, error) { return fault.ParseSpec(spec) }

// FaultSpecKeys lists the keys ParseFaultSpec recognizes, sorted.
func FaultSpecKeys() []string { return fault.SpecKeys() }
