// Command clusterspeed measures how fast the cluster simulator runs: the
// wall-clock rate (simulated cluster cycles per second, and aggregate
// node-cycles per second) of a never-halting ring traffic workload at 1,
// 2, 4 and 8 nodes under the parallel windowed engine, swept across
// GOMAXPROCS settings, plus the two-node overhead of parallel windows over
// the same windows run inline on one goroutine — the price of the
// parallel scheduler itself.
//
// The JSON it prints is the repo's cluster-speed baseline; `make
// bench-cluster` refreshes BENCH_cluster.json with it. -gate FILE
// re-reads a recorded report and fails if the two-node parallel engine
// was more than -max-overhead percent slower than the inline run — the
// CI regression gate on scheduler overhead. Methodology is described in
// EXPERIMENTS.md ("Parallel engine scaling").
//
// Usage:
//
//	clusterspeed [-cycles N] [-reps N] [-wire N] [-quick]
//	clusterspeed -gate BENCH_cluster.json [-max-overhead 5]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"csbsim/internal/cluster"
)

// ScaleResult is one (nodes, GOMAXPROCS) rate measurement.
type ScaleResult struct {
	Nodes      int     `json:"nodes"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Cycles     uint64  `json:"simulated_cycles"`
	Seconds    float64 `json:"wall_seconds"`
	KHz        float64 `json:"sim_khz"`      // cluster cycles per wall second / 1000
	NodeKHz    float64 `json:"node_sim_khz"` // nodes × cluster cycles per wall second / 1000
}

// Report is the full clusterspeed output.
type Report struct {
	GoVersion   string        `json:"go_version"`
	NumCPU      int           `json:"num_cpu"`
	Wire        uint64        `json:"wire_latency"`
	Scaling     []ScaleResult `json:"scaling"`
	SequentialS float64       `json:"sequential_2node_seconds"`
	ParallelS   float64       `json:"parallel_2node_seconds"`
	// OverheadPct is how much slower the two-node parallel run was than
	// the inline run on the same workload (negative = faster).
	OverheadPct float64 `json:"parallel_overhead_pct"`
}

func main() {
	var (
		cycles  = flag.Uint64("cycles", 1_500_000, "simulated cluster cycles per measurement")
		reps    = flag.Int("reps", 3, "repetitions per configuration (best wall time wins)")
		wire    = flag.Uint64("wire", 480, "wire latency in CPU cycles (= the lookahead window)")
		quick   = flag.Bool("quick", false, "smoke mode: few cycles, one rep")
		gate    = flag.String("gate", "", "read a recorded report from FILE and gate on its overhead instead of benchmarking")
		maxOver = flag.Float64("max-overhead", 5, "with -gate: fail if parallel_overhead_pct exceeds this")
	)
	flag.Parse()
	if *gate != "" {
		if err := runGate(*gate, *maxOver); err != nil {
			fatal(err)
		}
		return
	}
	if *quick {
		*cycles = 150_000
		*reps = 1
	}

	rep := Report{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Wire: *wire}

	// GOMAXPROCS sweep: 1, 2, 4, … up to the host's cores.
	var procs []int
	for p := 1; p < runtime.NumCPU(); p *= 2 {
		procs = append(procs, p)
	}
	procs = append(procs, runtime.NumCPU())

	for _, nodes := range []int{1, 2, 4, 8} {
		for _, p := range procs {
			r, err := measure(nodes, p, *wire, *cycles, *reps, true)
			if err != nil {
				fatal(err)
			}
			rep.Scaling = append(rep.Scaling, r)
		}
	}

	// Two-node engine-overhead comparison at full parallelism.
	par, err := measure(2, runtime.NumCPU(), *wire, *cycles, *reps, true)
	if err != nil {
		fatal(err)
	}
	seq, err := measure(2, runtime.NumCPU(), *wire, *cycles, *reps, false)
	if err != nil {
		fatal(err)
	}
	rep.ParallelS, rep.SequentialS = par.Seconds, seq.Seconds
	if seq.Seconds > 0 {
		rep.OverheadPct = 100 * (par.Seconds - seq.Seconds) / seq.Seconds
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
}

// trafficGuest is a never-halting node program: send one word clockwise,
// wait for the NIC to transmit it, drain whatever arrived, repeat. Every
// engine layer (CPU, uncached path, NIC, wire) stays busy for the whole
// measurement window.
const trafficGuest = `
	.equ NICREG, 0x40000000
	.equ PKTBUF, 0x40001000
	set NICREG, %o0
	set PKTBUF, %o1
	set 8, %g4
	sll %g4, 48, %g4
	clr %l0
	set 0x5A, %g6
loop:	stx %g6, [%o1]
	membar
	stx %g4, [%o0]
	inc %l0
sent:	ldx [%o0+0x10], %g1
	srl %g1, 32, %g1
	cmp %g1, %l0
	bl sent
drain:	ldx [%o0+0x28], %g1
	tst %g1
	bz out
	ldx [%o0+0x20], %g2
	ba drain
out:	ba loop
`

// measure runs the ring traffic workload on `nodes` nodes for a fixed
// number of cluster cycles and reports the best wall-clock rate over
// `reps` repetitions. Construction and assembly are excluded; GOMAXPROCS
// is pinned around the run and restored after.
func measure(nodes, gomaxprocs int, wire, cycles uint64, reps int, parallel bool) (ScaleResult, error) {
	res := ScaleResult{Nodes: nodes, GOMAXPROCS: gomaxprocs, Cycles: cycles}
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < reps; rep++ {
		cfg := cluster.DefaultConfig()
		cfg.Nodes = nodes
		cfg.Topology = cluster.TopoRing
		cfg.WireLatency = wire
		c, err := cluster.New(cfg)
		if err != nil {
			return res, err
		}
		for _, n := range c.Nodes() {
			n.MapIO(false)
			prog, err := n.M.LoadSource("traffic.s", trafficGuest)
			if err != nil {
				return res, err
			}
			n.M.WarmProgram(prog)
		}
		prev := runtime.GOMAXPROCS(gomaxprocs)
		start := time.Now()
		err = c.RunFor(cycles, parallel)
		elapsed := time.Since(start)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return res, err
		}
		if elapsed < best {
			best = elapsed
		}
	}
	res.Seconds = best.Seconds()
	if res.Seconds > 0 {
		res.KHz = float64(cycles) / res.Seconds / 1e3
		res.NodeKHz = res.KHz * float64(nodes)
	}
	return res, nil
}

// runGate reads a recorded report and fails if the parallel engine's
// two-node overhead exceeds the budget.
func runGate(path string, maxPct float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rep.SequentialS == 0 || rep.ParallelS == 0 {
		return fmt.Errorf("%s: no engine comparison to gate (regenerate with clusterspeed)", path)
	}
	fmt.Printf("gate: parallel_overhead_pct = %.1f (budget %.1f)\n", rep.OverheadPct, maxPct)
	if rep.OverheadPct > maxPct {
		return fmt.Errorf("two-node parallel run %.1f%% slower than inline, budget %.1f%%",
			rep.OverheadPct, maxPct)
	}
	var lines []string
	for _, s := range rep.Scaling {
		lines = append(lines, fmt.Sprintf("%d nodes @ GOMAXPROCS=%d: %.0f kcycles/s (%.0f node-kcycles/s)",
			s.Nodes, s.GOMAXPROCS, s.KHz, s.NodeKHz))
	}
	fmt.Println(strings.Join(lines, "\n"))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clusterspeed:", err)
	os.Exit(1)
}
