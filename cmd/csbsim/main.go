// Command csbsim runs an SV9L assembly program on the simulated machine
// and reports execution statistics.
//
// Usage:
//
//	csbsim [flags] program.s
//
// The machine defaults to the paper's configuration (4-wide out-of-order
// core, 64-byte lines, 8-byte multiplexed bus at a 6:1 clock ratio,
// non-combining uncached buffer, 64-byte CSB). Flags adjust the bus model,
// clock ratio, combining scheme and address-space layout; -combining and
// -uncached map extra I/O ranges, e.g.:
//
//	csbsim -combining 0x40000000:64K prog.s
//
// Observability flags: -cpistack prints the stall-attribution stack,
// -json emits the full statistics object, and -counters attaches the
// unified per-layer counter registry on its own. -record FILE writes a
// flight recording, window by window as the run goes (watch it live
// with csbtop FILE): every counter's change and every gauge's value (CSB
// occupancy and pending lines, uncached-buffer and write-buffer depth)
// per -record-every cycles, and at the end the last 4096 retired
// instructions and bus transactions with their cycle stamps, and a
// footer with every latency histogram's whole-run statistics. csbrec
// reads it back: `csbrec slice` lists each window, `csbrec series` the
// whole run, `csbrec pipeview` draws the last instructions as an ASCII
// pipeline diagram, and `csbrec perfetto` turns it into a Perfetto
// trace: counter tracks, instruction lifetimes and bus transactions.
// Per-window IPC is the ratio of the cpu/retired and cpu/cycles deltas,
// bus-busy% that of bus/busy_cycles and bus/cycles. -journeys traces
// every uncached/CSB store and NIC descriptor through the memory system
// (per-hop cycle stamps, per-layer latency histograms); with -record the
// slowest and the most recent journeys land in the recording, an
// aborted run's included (query them with `csbrec journeys`), and
// `csbrec perfetto` draws them as a "memory system" track with flow
// arrows to the instructions and bus transactions.
//
// Robustness flags: -faults attaches a deterministic fault injector
// ("default", or a key=value list such as "busnack=64,seed=3"),
// -fault-seed replays a specific fault schedule, and -watchdog N aborts
// with a full diagnostic dump if no instruction retires for N cycles:
//
//	csbsim -faults default -fault-seed 7 -watchdog 100000 prog.s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"csbsim"
	"csbsim/internal/bus"
	"csbsim/internal/mem"
	"csbsim/internal/obs/rec"
	"csbsim/internal/trace"
)

func main() {
	var (
		maxCycles = flag.Uint64("cycles", 100_000_000, "cycle limit")
		ratio     = flag.Int("ratio", 6, "CPU-to-bus clock frequency ratio")
		busModel  = flag.String("bus", "mux", "bus model: mux or split")
		width     = flag.Int("width", 8, "bus data width in bytes")
		turn      = flag.Int("turnaround", 0, "idle bus cycles after each transaction")
		ack       = flag.Int("ackdelay", 0, "min bus cycles between ordered transaction starts")
		line      = flag.Int("line", 64, "cache line / CSB burst size in bytes")
		block     = flag.Int("combine", 0, "uncached buffer combining block (0 = off)")
		comb      = flag.String("combining", "", "map combining space: addr:size (e.g. 0x40000000:64K)")
		unc       = flag.String("uncached", "", "map uncached space: addr:size")
		verbose   = flag.Bool("v", false, "print full statistics")
		traceRun  = flag.Bool("trace", false, "stream the retired-instruction trace to stderr")

		faults    = flag.String("faults", "", `inject deterministic faults: "default" or key=value list (keys: seed, `+strings.Join(csbsim.FaultSpecKeys(), ", ")+`)`)
		faultSeed = flag.Uint64("fault-seed", 0, "override the fault spec's PRNG seed (0 = keep the spec's)")
		watchdog  = flag.Uint64("watchdog", 0, "abort with a diagnostic dump after N cycles without a retired instruction (0 = off)")

		journeys   = flag.Bool("journeys", false, "trace store journeys (UB/CSB/bus/device hops); with -record they land in the recording (query with csbrec journeys)")
		countersOn = flag.Bool("counters", false, "attach the unified counter registry (implied by -journeys); counters land in -v and -json output")

		record  = flag.String("record", "", "write a flight-recorder recording to FILE (inspect with csbrec, watch with csbtop)")
		recEach = flag.Uint64("record-every", 10_000, "recording window in CPU cycles")
		sloSpec = flag.String("slo", "", "SLO spec (string or @file) evaluated per recording window; breaches land in the event log")

		cpistack = flag.Bool("cpistack", false, "print the CPI stall-attribution stack")
		jsonOut  = flag.Bool("json", false, "print full statistics as JSON on stdout")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: csbsim [flags] program.s\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	cfg := csbsim.DefaultConfig()
	cfg.Ratio = *ratio
	cfg.Bus.WidthBytes = *width
	cfg.Bus.Turnaround = *turn
	cfg.Bus.AckDelay = *ack
	switch *busModel {
	case "mux":
		cfg.Bus.Model = bus.Multiplexed
	case "split":
		cfg.Bus.Model = bus.Split
	default:
		fatal(fmt.Errorf("unknown bus model %q", *busModel))
	}
	cfg.Caches.L1I.LineSize = *line
	cfg.Caches.L1D.LineSize = *line
	cfg.Caches.L2.LineSize = *line
	cfg.CSB.LineSize = *line
	cfg.UB.MaxBurst = *line
	cfg.UB.BlockSize = *block

	m, err := csbsim.NewMachine(cfg)
	if err != nil {
		fatal(err)
	}
	if err := mapRange(m, *comb, mem.KindCombining); err != nil {
		fatal(err)
	}
	if err := mapRange(m, *unc, mem.KindUncached); err != nil {
		fatal(err)
	}
	if *faults != "" {
		fcfg, err := csbsim.ParseFaultSpec(*faults)
		if err != nil {
			fatal(err)
		}
		if *faultSeed != 0 {
			fcfg.Seed = *faultSeed
		}
		if _, err := m.AttachFaults(fcfg); err != nil {
			fatal(err)
		}
	} else if *faultSeed != 0 {
		fatal(fmt.Errorf("-fault-seed needs -faults (try -faults default)"))
	}
	if *watchdog > 0 {
		if err := m.SetWatchdog(*watchdog); err != nil {
			fatal(err)
		}
	}
	if *countersOn {
		m.AttachCounters()
	}
	if *journeys {
		if _, err := m.AttachJourneys(); err != nil {
			fatal(err)
		}
	}
	// The flight recorder rides the generic periodic hook: one rollup
	// window per -record-every cycles, flushed with the journeys, the
	// pipeline tail and a footer after the run (even an aborted one).
	// -slo without -record still evaluates live, writing nothing.
	var recorder *rec.Recorder
	var recFile *os.File
	if *record != "" || *sloSpec != "" {
		r, err := rec.New(rec.Config{Every: *recEach})
		if err != nil {
			fatal(err)
		}
		if err := r.AddSource("machine", m.AttachCounters()); err != nil {
			fatal(err)
		}
		if err := r.AddJourneys(m.Journeys()); err != nil {
			fatal(err)
		}
		if *sloSpec != "" {
			spec := *sloSpec
			if strings.HasPrefix(spec, "@") {
				data, err := os.ReadFile(spec[1:])
				if err != nil {
					fatal(err)
				}
				spec = string(data)
			}
			slo, err := rec.ParseSLO(spec)
			if err != nil {
				fatal(err)
			}
			if err := r.SetSLO(slo); err != nil {
				fatal(err)
			}
		}
		if *record != "" {
			f, err := os.Create(*record)
			if err != nil {
				fatal(err)
			}
			recFile = f
			if err := r.SetWriter(f); err != nil {
				fatal(err)
			}
			if err := r.AddPipeline(m.AttachPipeline()); err != nil {
				fatal(err)
			}
		}
		r.Start(m.Cycle())
		if err := m.AttachPeriodic(*recEach, r.Roll); err != nil {
			fatal(err)
		}
		recorder = r
	}

	file := flag.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fatal(err)
	}
	if _, err := m.LoadSource(file, string(src)); err != nil {
		fatal(err)
	}
	if *traceRun {
		trace.New(os.Stderr).Attach(m.CPU)
	}

	runErr := m.Run(*maxCycles)
	if out := m.Console(); out != "" {
		fmt.Print(out)
		if !strings.HasSuffix(out, "\n") {
			fmt.Println()
		}
	}
	// One last firing of every periodic hook emits the final partial
	// recording window; a no-op after an abort that Run already flushed.
	m.FlushObs()
	// The recording is closed even when the run aborted (watchdog, device
	// error): FlushObs already fired the final periodic roll, this adds
	// the journeys, the partial ones a post-mortem wants, the pipeline
	// tail and the footer.
	if recorder != nil {
		recorder.Flush(m.Cycle())
		if err := recorder.Err(); err != nil {
			fatal(err)
		}
		if recFile != nil {
			if err := recFile.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "csbsim: recorded %d windows, %d events -> %s\n",
				recorder.Windows(), recorder.EventCount(), *record)
		}
		for _, a := range recorder.ActiveAlerts() {
			fmt.Fprintf(os.Stderr, "csbsim: SLO BREACHED at end: %s rule=%q value=%g (since cycle %d)\n",
				a.Series, a.Rule, a.Value, a.Since)
		}
	}
	if runErr != nil {
		fatal(runErr)
	}

	s := m.Stats()
	switch {
	case *jsonOut:
		data, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	case *verbose:
		fmt.Print(s.Report())
	default:
		fmt.Printf("halted after %d cycles (%d bus cycles), %d instructions, IPC %.2f\n",
			s.Cycles, s.BusCycles, s.CPU.Retired, s.CPU.IPC())
	}
	if *cpistack {
		fmt.Print(s.ReportCPI())
	}
}

// mapRange parses "addr:size" with optional K/M suffixes and maps it.
func mapRange(m *csbsim.Machine, spec string, kind mem.Kind) error {
	if spec == "" {
		return nil
	}
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return fmt.Errorf("bad range %q (want addr:size)", spec)
	}
	addr, err := parseNum(parts[0])
	if err != nil {
		return err
	}
	size, err := parseNum(parts[1])
	if err != nil {
		return err
	}
	m.MapRange(addr, size, kind)
	return nil
}

func parseNum(s string) (uint64, error) {
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult = 1 << 10
		s = s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult = 1 << 20
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), pickBase(s), 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v * mult, nil
}

func pickBase(s string) int {
	if strings.HasPrefix(s, "0x") {
		return 16
	}
	return 10
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "csbsim:", err)
	os.Exit(1)
}
