// Command csbcluster runs a traced N-node cluster in one of three modes:
// the built-in two-node ping-pong workload (the paper's §7 "realistic
// application" step, extension X8), caller-supplied SV9L programs (one
// per node), or the open-loop serving workload (-serve): load-generator
// clients streaming requests at a configured offered rate against server
// nodes that reply via uncached PIO, CSB-batched stores or DMA.
//
// Usage:
//
//	csbcluster [flags]                  # built-in ping-pong (two nodes)
//	csbcluster [flags] a.s b.s [...]    # custom guests, one per node
//	csbcluster -serve [flags]           # open-loop serving workload
//
// Topology flags (-nodes, -topology, -bandwidth, -link-depth) shape the
// fabric; -engine picks how the conservative-lookahead engine runs its
// node windows: "parallel" (default) spreads them over up to GOMAXPROCS
// host threads, "seq" runs them inline on one. Both produce
// byte-identical results at any wire latency.
//
// Serving flags: -rate R offers R requests per 1000 cycles per client
// (open loop — arrivals never wait for completions), -dist picks the
// inter-arrival distribution, -servers the server node indices
// (comma-separated; every other node is a client), -horizon the run
// length, -req-words the request/reply size. The run reports per-client
// and merged throughput/latency quantiles as JSON.
//
// Observability flags wire up the cross-node layer: -trace follows every
// packet across the wire (one wire journey per packet, fifo_push →
// tx_start → wire_depart → wire_arrive → rx_enqueue → rx_drain stamps
// on the shared cluster timeline, plus per-hop latency histograms), and
// -record FILE writes the flight recording window by window while the
// cluster runs (watch it live with csbrec top FILE). With both, the
// recording ends with every node's retained journeys and the wire
// journeys: `csbrec journeys FILE` lists them and `csbrec perfetto FILE`
// draws one timeline per node with flow arrows across the wire (load at
// ui.perfetto.dev).
//
// Examples:
//
//	csbcluster -send csb -rounds 50 -wire 120 -trace -record wire.rec -v
//	csbcluster -serve -nodes 4 -topology star -rate 2 -send csb -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"csbsim/internal/bench"
	"csbsim/internal/cluster"
	"csbsim/internal/cluster/loadgen"
	"csbsim/internal/fault"
	"csbsim/internal/mem"
	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/journey"
	"csbsim/internal/obs/rec"
)

type options struct {
	rounds    int
	send      string
	nodes     int
	topology  string
	wire      uint64
	bandwidth uint64
	linkDepth int
	enqDelay  uint64
	engine    string
	maxCycles uint64

	serve    bool
	rate     float64
	dist     string
	seed     uint64
	servers  string
	horizon  uint64
	reqWords int

	wireFaults string
	nodeFaults string
	watchdog   uint64
	degrade    bool
	timeout    uint64
	retries    int
	backoff    uint64

	trace    bool
	record   string
	recEvery uint64
	slo      string

	verbose bool
	jsonOut bool
}

func main() {
	var o options
	flag.IntVar(&o.rounds, "rounds", 30, "ping-pong rounds (built-in workload)")
	flag.StringVar(&o.send, "send", "csb", "send/reply method: pio, csb or dma")
	flag.IntVar(&o.nodes, "nodes", 0, "node count (default 2, or 4 with -serve)")
	flag.StringVar(&o.topology, "topology", "", "fabric shape: mesh, ring or star (default mesh, or star with -serve)")
	flag.Uint64Var(&o.wire, "wire", 120, "wire latency in CPU cycles each way")
	flag.Uint64Var(&o.bandwidth, "bandwidth", 0, "link serialization cost in cycles per 8-byte word (0 = infinite)")
	flag.IntVar(&o.linkDepth, "link-depth", 0, "max packets in flight per link (0 = unbounded)")
	flag.Uint64Var(&o.enqDelay, "rx-delay", 0, "extra RX staging delay in CPU cycles (wire_arrive to rx_enqueue)")
	flag.StringVar(&o.engine, "engine", "parallel", "window scheduling: parallel or seq")
	flag.Uint64Var(&o.maxCycles, "cycles", 100_000_000, "cluster cycle limit")

	flag.BoolVar(&o.serve, "serve", false, "run the open-loop serving workload")
	flag.Float64Var(&o.rate, "rate", 1, "offered load per client in requests per 1000 cycles")
	flag.StringVar(&o.dist, "dist", "uniform", "inter-arrival distribution: uniform, bursty or heavytail")
	flag.Uint64Var(&o.seed, "seed", 1, "base PRNG seed (client i draws from seed+i)")
	flag.StringVar(&o.servers, "servers", "0", "comma-separated server node indices; all other nodes are clients")
	flag.Uint64Var(&o.horizon, "horizon", 300_000, "serving run length in cluster cycles")
	flag.IntVar(&o.reqWords, "req-words", 8, "request/reply payload in 8-byte words (1..8)")

	flag.StringVar(&o.wireFaults, "wire-faults", "", "wire fault spec, e.g. \"wire\" or \"wiredrop=16,outage=2\" (see internal/fault)")
	flag.StringVar(&o.nodeFaults, "node-faults", "", "machine fault spec attached to every node, or one node with an \"IDX:\" prefix (node i draws from seed+i)")
	flag.Uint64Var(&o.watchdog, "watchdog", 0, "cluster watchdog window in cycles (0 = off): abort when a node retires nothing for that long")
	flag.BoolVar(&o.degrade, "degrade", false, "with -watchdog, mark a wedged node down and keep serving instead of aborting")
	flag.Uint64Var(&o.timeout, "timeout", 0, "per-request deadline in cycles for -serve clients (0 = fire-and-forget)")
	flag.IntVar(&o.retries, "retries", 0, "retry budget per timed-out request (-serve; needs -timeout)")
	flag.Uint64Var(&o.backoff, "backoff", 0, "base retry backoff in cycles (0 = timeout/4)")

	flag.BoolVar(&o.trace, "trace", false, "trace every wire packet; with -record the journeys go into the recording (csbrec journeys, csbrec perfetto)")
	flag.StringVar(&o.record, "record", "", "write a flight-recorder recording to FILE (inspect with csbrec, watch with csbrec top)")
	flag.Uint64Var(&o.recEvery, "record-every", 10_000, "recording window in cluster cycles")
	flag.StringVar(&o.slo, "slo", "", "SLO spec (string or @file) evaluated per recording window; breaches land in the event log")

	flag.BoolVar(&o.verbose, "v", false, "print the wire-hop histograms")
	flag.BoolVar(&o.jsonOut, "json", false, "print the run summary as JSON")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: csbcluster [flags] [guest.s ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if err := run(&o, flag.Args(), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "csbcluster:", err)
		os.Exit(1)
	}
}

// run runs the cluster o describes and prints its summary to out.
func run(o *options, args []string, out io.Writer) error {
	method, csb, err := parseSend(o.send)
	if err != nil {
		return err
	}
	if o.serve && len(args) != 0 {
		return fmt.Errorf("-serve and custom guests are mutually exclusive")
	}

	// Shape defaults depend on the mode: ping-pong wants two nodes,
	// serving wants a star of clients around a server hub.
	cfg := cluster.DefaultConfig()
	cfg.WireLatency = o.wire
	cfg.Bandwidth = o.bandwidth
	cfg.LinkDepth = o.linkDepth
	cfg.RxEnqueueDelay = o.enqDelay
	cfg.Nodes = o.nodes
	if cfg.Nodes == 0 {
		if o.serve {
			cfg.Nodes = 4
		} else if len(args) > 0 {
			cfg.Nodes = len(args)
		} else {
			cfg.Nodes = 2
		}
	}
	if o.topology == "" {
		if o.serve {
			cfg.Topology = cluster.TopoStar
		}
	} else if cfg.Topology, err = cluster.ParseTopology(o.topology); err != nil {
		return err
	}
	if len(args) > 0 && len(args) != cfg.Nodes {
		return fmt.Errorf("%d guest programs for %d nodes", len(args), cfg.Nodes)
	}

	c, err := cluster.New(cfg)
	if err != nil {
		return err
	}

	traced := o.trace || o.verbose || o.jsonOut
	if traced {
		if _, err := c.AttachTrace(); err != nil {
			return err
		}
	}
	// Flight recorder: -record persists windows to disk, -slo alone still
	// evaluates live (writing nothing). Series tables seal at run start, so
	// attaching before the workloads register their counters is fine.
	if o.record != "" || o.slo != "" {
		r, err := rec.New(rec.Config{Every: o.recEvery})
		if err != nil {
			return err
		}
		if o.slo != "" {
			slo, err := rec.LoadSLO(o.slo)
			if err != nil {
				return err
			}
			if err := r.SetSLO(slo); err != nil {
				return err
			}
		}
		if o.record != "" {
			f, err := os.Create(o.record)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := r.SetWriter(f); err != nil {
				return err
			}
		}
		if err := c.AttachRecorder(r); err != nil {
			return err
		}
	}

	// Fault injection and the cluster watchdog attach before anything runs.
	if o.wireFaults != "" {
		fcfg, err := fault.ParseSpec(o.wireFaults)
		if err != nil {
			return err
		}
		if _, err := c.AttachWireFaults(fcfg); err != nil {
			return err
		}
	}
	if o.nodeFaults != "" {
		spec, target := o.nodeFaults, -1
		// An "IDX:" prefix confines the faults to one node — the shape of a
		// failover experiment (wedge one server, watch clients re-steer).
		if k := strings.IndexByte(spec, ':'); k > 0 {
			if v, err := strconv.Atoi(spec[:k]); err == nil {
				if v < 0 || v >= c.NumNodes() {
					return fmt.Errorf("-node-faults node %d out of range (cluster has %d nodes)", v, c.NumNodes())
				}
				target, spec = v, spec[k+1:]
			}
		}
		fcfg, err := fault.ParseSpec(spec)
		if err != nil {
			return err
		}
		for i, n := range c.Nodes() {
			if target >= 0 && i != target {
				continue
			}
			ncfg := fcfg
			ncfg.Seed += uint64(i)
			if _, err := n.M.AttachFaults(ncfg); err != nil {
				return err
			}
		}
	}
	if o.watchdog > 0 {
		if err := c.SetWatchdog(o.watchdog, o.degrade); err != nil {
			return err
		}
	} else if o.degrade {
		return fmt.Errorf("-degrade needs a -watchdog window")
	}

	var gens []*loadgen.Generator
	var clients []int
	switch {
	case o.serve:
		if gens, clients, err = setupServe(c, o, method); err != nil {
			return err
		}
	case len(args) > 0:
		for i, path := range args {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			n := c.Node(i)
			n.M.MapNIC(csb)
			n.M.MapRange(0x200000, 1<<16, mem.KindCached)
			prog, err := n.M.LoadSource(path, string(src))
			if err != nil {
				return err
			}
			n.M.WarmProgram(prog)
		}
	default:
		for _, n := range c.Nodes() {
			n.M.MapNIC(csb)
			n.M.MapRange(0x200000, 1<<16, mem.KindCached)
		}
		ping, pong := bench.PingPongPrograms(method, o.rounds)
		for i, src := range []string{ping, pong} {
			name := []string{"ping.s", "pong.s"}[i]
			prog, err := c.Node(i).M.LoadSource(name, src)
			if err != nil {
				return err
			}
			c.Node(i).M.WarmProgram(prog)
		}
	}

	runErr := runEngine(c, o)
	if r := c.Recorder(); r != nil {
		if err := r.Err(); err != nil {
			return err
		}
		if o.record != "" {
			fmt.Fprintf(os.Stderr, "csbcluster: recorded %d windows, %d events -> %s\n",
				r.Windows(), r.EventCount(), o.record)
		}
		for _, a := range r.ActiveAlerts() {
			fmt.Fprintf(os.Stderr, "csbcluster: SLO BREACHED at end: %s rule=%q value=%g (since cycle %d)\n",
				a.Series, a.Rule, a.Value, a.Since)
		}
	}
	if runErr != nil {
		return runErr
	}

	if o.serve {
		return reportServe(c, o, gens, clients, out)
	}
	var started, completed uint64
	if traced {
		started, completed, _ = c.Trace().Counts(journey.KindWire)
	}
	switch {
	case o.jsonOut:
		sum := struct {
			Cycles    uint64                      `json:"cycles"`
			Nodes     int                         `json:"nodes"`
			Rounds    int                         `json:"rounds,omitempty"`
			Started   uint64                      `json:"packets_started"`
			Completed uint64                      `json:"packets_completed"`
			Hops      map[string]counters.Summary `json:"hops"`
		}{Cycles: c.Cycle(), Nodes: c.NumNodes(), Started: started, Completed: completed,
			Hops: map[string]counters.Summary{}}
		if len(args) == 0 {
			sum.Rounds = o.rounds
		}
		c.Registry().VisitHistograms(func(h *counters.Histogram) {
			if strings.HasPrefix(h.Name(), "journey/") {
				sum.Hops[h.Name()] = h.Summary()
			}
		})
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
	case o.verbose:
		fmt.Fprintf(out, "cluster halted after %d cycles; %d packets crossed the wire (%d completed)\n",
			c.HaltCycle(), started, completed)
		fmt.Fprint(out, c.Registry().Snapshot().Format())
	default:
		if traced {
			fmt.Fprintf(out, "cluster halted after %d cycles; %d packets crossed the wire\n",
				c.HaltCycle(), started)
		} else {
			fmt.Fprintf(out, "cluster halted after %d cycles\n", c.HaltCycle())
		}
	}
	return nil
}

// setupServe loads server guests and attaches one load generator per
// client node.
func setupServe(c *cluster.Cluster, o *options, method bench.SendMethod) ([]*loadgen.Generator, []int, error) {
	dist, err := loadgen.ParseDist(o.dist)
	if err != nil {
		return nil, nil, err
	}
	if o.rate <= 0 {
		return nil, nil, fmt.Errorf("offered rate must be positive")
	}
	meanGap := uint64(1000 / o.rate)
	if meanGap == 0 {
		meanGap = 1
	}
	servers, err := parseServers(o.servers, c.NumNodes())
	if err != nil {
		return nil, nil, err
	}
	isServer := make(map[int]bool, len(servers))
	for _, s := range servers {
		isServer[s] = true
	}
	src, err := loadgen.ServerProgram(method, o.reqWords)
	if err != nil {
		return nil, nil, err
	}
	var gens []*loadgen.Generator
	var clients []int
	for i, n := range c.Nodes() {
		if isServer[i] {
			loadgen.ServerMapIO(n, method)
			prog, err := n.M.LoadSource("server.s", src)
			if err != nil {
				return nil, nil, err
			}
			n.M.WarmProgram(prog)
			continue
		}
		if _, err := n.M.LoadSource("client.s", "halt\n"); err != nil {
			return nil, nil, err
		}
		// Clients steer to the servers they can reach (all of them in a
		// mesh; in a star, the hub).
		var reach []int
		for _, s := range servers {
			if _, ok := c.Link(i, s); ok {
				reach = append(reach, s)
			}
		}
		g := loadgen.New(loadgen.Config{
			MeanGap:     meanGap,
			Dist:        dist,
			Seed:        o.seed + uint64(i),
			Words:       o.reqWords,
			Servers:     reach,
			Timeout:     o.timeout,
			MaxRetries:  o.retries,
			BackoffBase: o.backoff,
		})
		if err := g.Attach(c, i); err != nil {
			return nil, nil, err
		}
		gens = append(gens, g)
		clients = append(clients, i)
	}
	if len(gens) == 0 {
		return nil, nil, fmt.Errorf("no client nodes (every node is a server)")
	}
	return gens, clients, nil
}

// reportServe aggregates the generators' accounting into the serving-run
// summary.
func reportServe(c *cluster.Cluster, o *options, gens []*loadgen.Generator, clients []int, w io.Writer) error {
	type clientOut struct {
		Node  string        `json:"node"`
		Stats loadgen.Stats `json:"stats"`
		P50   uint64        `json:"p50_cycles"`
		P99   uint64        `json:"p99_cycles"`
	}
	out := struct {
		Cycles     uint64           `json:"cycles"`
		Nodes      int              `json:"nodes"`
		Topology   string           `json:"topology"`
		Method     string           `json:"method"`
		Dist       string           `json:"dist"`
		RatePerK   float64          `json:"offered_per_kcycle_per_client"`
		Clients    []clientOut      `json:"clients"`
		Total      loadgen.Stats    `json:"total"`
		Latency    counters.Summary `json:"latency"`
		Throughput float64          `json:"completed_per_kcycle"`
		WireFaults *fault.Stats     `json:"wire_faults,omitempty"`
		NodesDown  []string         `json:"nodes_down,omitempty"`
	}{
		Cycles: c.Cycle(), Nodes: c.NumNodes(), Method: o.send, Dist: o.dist,
		RatePerK: o.rate,
	}
	if inj := c.WireFaults(); inj != nil {
		fs := inj.Stats()
		out.WireFaults = &fs
	}
	out.NodesDown = c.DownNodes()
	topo := o.topology
	if topo == "" {
		topo = cluster.TopoStar.String()
	}
	out.Topology = topo
	merged := counters.NewHistogram("latency")
	for k, g := range gens {
		st := g.Stats()
		out.Clients = append(out.Clients, clientOut{
			Node:  c.Node(clients[k]).Name(),
			Stats: st,
			P50:   g.Latency().Quantile(0.5),
			P99:   g.Latency().Quantile(0.99),
		})
		out.Total.Issued += st.Issued
		out.Total.Completed += st.Completed
		out.Total.Lost += st.Lost
		out.Total.Stray += st.Stray
		out.Total.Timeouts += st.Timeouts
		out.Total.Retries += st.Retries
		out.Total.DuplicateReplies += st.DuplicateReplies
		out.Total.Goodput += st.Goodput
		merged.Merge(g.Latency())
	}
	out.Latency = merged.Summary()
	if c.Cycle() > 0 {
		out.Throughput = 1000 * float64(out.Total.Completed) / float64(c.Cycle())
	}
	if o.jsonOut {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(data))
		return nil
	}
	fmt.Fprintf(w, "serving run: %d cycles, %d clients → %d servers (%s, %s replies, %s arrivals)\n",
		out.Cycles, len(gens), c.NumNodes()-len(gens), out.Topology, o.send, o.dist)
	fmt.Fprintf(w, "offered %.2f req/kcycle/client; issued %d, completed %d (%.2f/kcycle), lost %d, stray %d\n",
		o.rate, out.Total.Issued, out.Total.Completed, out.Throughput, out.Total.Lost, out.Total.Stray)
	if o.timeout > 0 {
		fmt.Fprintf(w, "reliability: timeouts %d, retries %d, duplicate replies %d, goodput %d\n",
			out.Total.Timeouts, out.Total.Retries, out.Total.DuplicateReplies, out.Total.Goodput)
	}
	fmt.Fprintf(w, "latency: p50=%d p95=%d p99=%d max=%d cycles\n",
		out.Latency.P50, out.Latency.P95, out.Latency.P99, out.Latency.Max)
	if fs := out.WireFaults; fs != nil {
		fmt.Fprintf(w, "wire faults: seed=%d drops=%d dups=%d delays=%d (%d cycles) outages=%d (%d cycles)\n",
			fs.Seed, fs.WireDrops, fs.WireDups, fs.WireDelays, fs.WireDelayCycles,
			fs.OutageWindows, fs.OutageCycles)
	}
	if len(out.NodesDown) > 0 {
		fmt.Fprintf(w, "degraded: nodes down: %s\n", strings.Join(out.NodesDown, ", "))
	}
	if o.verbose {
		fmt.Fprint(w, c.Registry().Snapshot().Format())
	}
	return nil
}

// runEngine runs the cluster with the window scheduling -engine picked.
func runEngine(c *cluster.Cluster, o *options) error {
	var parallel bool
	switch o.engine {
	case "parallel":
		parallel = true
	case "seq":
	default:
		return fmt.Errorf("unknown engine %q (want parallel or seq)", o.engine)
	}
	if o.serve {
		return c.RunFor(o.horizon, parallel)
	}
	return c.Run(o.maxCycles, parallel)
}

func parseServers(s string, nodes int) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 0 || v >= nodes {
			return nil, fmt.Errorf("bad server node %q (cluster has %d nodes)", part, nodes)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no server nodes in %q", s)
	}
	return out, nil
}

func parseSend(s string) (bench.SendMethod, bool, error) {
	switch s {
	case "pio":
		return bench.SendPIO, false, nil
	case "csb":
		return bench.SendCSB, true, nil
	case "dma":
		return bench.SendDMA, false, nil
	}
	return 0, false, fmt.Errorf("unknown send method %q (want pio, csb or dma)", s)
}
