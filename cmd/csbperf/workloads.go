package main

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"time"

	"csbsim/internal/bench"
	"csbsim/internal/cluster"
	"csbsim/internal/cluster/loadgen"
	"csbsim/internal/cpu"
	"csbsim/internal/mem"
	"csbsim/internal/obs"
	"csbsim/internal/obs/counters"
	"csbsim/internal/sim"
)

// sizes fixes the simulated work of a workload. A segment is the unit of
// host timing. A pass is the fixed simulated length after which the
// simulated metrics and the retained heap are read and a fresh instance is
// built, so every simulated number is exact whatever the host speed.
type sizes struct {
	segCycles uint64 // machine or cluster cycles per segment (0: figures)
	passSegs  int
}

// workload is one benchmark input.
type workload struct {
	name  string
	why   string
	nodes int // machines ticked per simulated cycle (0: figures)
	full  sizes
	quick sizes
	build func(buildCfg) (instance, setupTimes, error)
	// reference, when set, returns the fingerprints every instance must
	// reproduce (figures: one regeneration on a single sweep worker).
	reference func() ([]uint64, error)
	// units names the separately timed parts of a segment (the figures);
	// nil when a segment is one unit.
	units []string
	// traceable workloads get a traced variant in the traced run.
	traceable bool
	// procs1 adds a GOMAXPROCS=1 variant to the traced run, for the
	// parallel speedup of the cluster engine or the figure sweeps.
	procs1 bool
}

// buildCfg is what an instance is built from.
type buildCfg struct {
	seed      uint64
	segCycles uint64
	acc       *traceAcc // nil: untraced
}

// setupTimes splits one build's host time by layer.
type setupTimes struct {
	total, new, asm, warm time.Duration
}

// instance is one built workload, advanced a segment at a time.
type instance interface {
	segment() error
	// fingerprint hashes every simulated statistic reached so far.
	fingerprint() uint64
	// check verifies the workload's invariants at a segment boundary.
	check() error
	// simMetrics returns the simulated (exact) per-layer metrics.
	simMetrics() map[string]float64
	// ops returns the operations attempted and failed so far: requests
	// for the serving workload, segments for the others.
	ops() (attempted, failed uint64)
}

var workloads = []*workload{
	{
		name:      "stores-uncached",
		why:       "§4.3.1 store stream into uncached space: runs cpu, uncbuf and bus and bypasses the CSB; the bus is saturated and most cycles stall",
		nodes:     1,
		full:      sizes{segCycles: 250_000, passSegs: 24},
		quick:     sizes{segCycles: 20_000, passSegs: 3},
		build:     storesBuilder(false),
		traceable: true,
	},
	{
		name:      "stores-csb",
		why:       "the same stream into combining space through the CSB: runs core and bypasses uncbuf; with stores-uncached it shows a gain on one I/O path bought at the other's cost",
		nodes:     1,
		full:      sizes{segCycles: 250_000, passSegs: 24},
		quick:     sizes{segCycles: 20_000, passSegs: 3},
		build:     storesBuilder(true),
		traceable: true,
	},
	{
		name:      "ring2",
		why:       "two busy nodes on a 120-cycle ring under the parallel windowed engine: balanced load, a barrier every 120 cycles, no loadgen",
		nodes:     2,
		full:      sizes{segCycles: 120_000, passSegs: 20},
		quick:     sizes{segCycles: 2_400, passSegs: 3},
		build:     buildRing,
		traceable: true,
		procs1:    true,
	},
	{
		name:      "serve",
		why:       "open-loop loadgen clients at 1.95 req/kcycle against one CSB server near its 2.00 ceiling: the only request-latency workload, imbalanced nodes",
		nodes:     1 + serveClients,
		full:      sizes{segCycles: 240_000, passSegs: 25},
		quick:     sizes{segCycles: 6_000, passSegs: 3},
		build:     buildServe,
		traceable: true,
		procs1:    true,
	},
	{
		name:      "figures",
		why:       "regenerates all 22 paper and extension figures: thousands of short machines, so setup and sweep parallelism dominate instead of steady-state ticking",
		full:      sizes{passSegs: 1},
		quick:     sizes{passSegs: 1},
		build:     buildFigures,
		units:     figureIDs,
		reference: figureReference,
		procs1:    true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// lap returns the time since *mark and moves the mark to now.
func lap(mark *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*mark)
	*mark = now
	return d
}

// ---- store streams ----

// storeTarget is the §4.3.1 transfer: more stores than any pass reaches,
// so the stream never halts inside a measurement.
const storeTarget = 64 << 20

// buildStoreMachine builds a paper-default machine streaming target bytes
// of stores into mapped bytes of uncached (or, with csb, combining) space,
// with warm caches, and adds each layer's share of the set-up time to st.
func buildStoreMachine(csb bool, target int, mapped uint64, st *setupTimes) (*sim.Machine, error) {
	start := time.Now()
	mark := start
	p := bench.DefaultParams()
	kind := mem.KindUncached
	if csb {
		p.Scheme = bench.SchemeCSB
		kind = mem.KindCombining
	}
	m, err := p.Build()
	if err != nil {
		return nil, err
	}
	st.new += lap(&mark)
	m.MapRange(bench.IOBase, mapped, kind)
	src := bench.StoreBandwidthProgram(target, p.LineSize, csb)
	lap(&mark)
	prog, err := m.LoadSource("stores.s", src)
	if err != nil {
		return nil, err
	}
	st.asm += lap(&mark)
	m.WarmProgram(prog)
	st.warm += lap(&mark)
	st.total += time.Since(start)
	return m, nil
}

func storesBuilder(csb bool) func(buildCfg) (instance, setupTimes, error) {
	return func(bc buildCfg) (instance, setupTimes, error) {
		var st setupTimes
		m, err := buildStoreMachine(csb, storeTarget, storeTarget, &st)
		if err != nil {
			return nil, st, err
		}
		return &storeInst{m: m, seg: bc.segCycles, acc: bc.acc, busIn: m.Cfg.Ratio, sampleIn: sampleEvery}, st, nil
	}
}

// storeInst is one store-stream machine. Untraced, it advances through
// sim.Machine.Tick; traced, through the mirror loop in trace.go.
type storeInst struct {
	m      *sim.Machine
	seg    uint64
	cycles uint64
	segs   uint64
	acc    *traceAcc

	busIn    int // mirror: cycles until the next bus cycle
	sampleIn int // mirror: cycles until the next timed cycle
}

func (s *storeInst) segment() error {
	if s.acc != nil {
		s.mirror(s.seg)
	} else {
		for range s.seg {
			s.m.Tick()
		}
	}
	s.cycles += s.seg
	s.segs++
	return nil
}

func (s *storeInst) check() error {
	if err := s.m.CPU.Err(); err != nil {
		return err
	}
	st := s.m.CPU.Stats()
	if s.m.CPU.Halted() {
		return fmt.Errorf("store stream halted at cycle %d, before its budget", st.Cycles)
	}
	if st.Cycles != s.cycles {
		return fmt.Errorf("cpu counted %d cycles, %d were run", st.Cycles, s.cycles)
	}
	return checkCPI(st)
}

func (s *storeInst) fingerprint() uint64 {
	h := fnv.New64a()
	hashStats(h, s.m, s.cycles)
	return h.Sum64()
}

func (s *storeInst) simMetrics() map[string]float64 { return layerMetrics(s.m) }

func (s *storeInst) ops() (uint64, uint64) { return s.segs, 0 }

func checkCPI(st cpu.Stats) error {
	if t := st.CPI.Total(); t != st.Cycles {
		return fmt.Errorf("CPI buckets sum to %d, not to the %d cycles", t, st.Cycles)
	}
	return nil
}

// hashStats feeds one machine's statistics into h, with cycles standing
// in for the machine's own count (the mirror loop does not advance it).
// The counter-registry snapshot is left out: it repeats the layer
// statistics, and host-time counters may join it.
func hashStats(h hash.Hash64, m *sim.Machine, cycles uint64) {
	st := m.Stats()
	st.Cycles = cycles
	st.Counters = nil
	hashJSON(h, st)
}

func hashJSON(h hash.Hash64, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // statistics are plain data
	}
	h.Write(b)
}

// cpiBuckets are the CPI-stack shares reported per workload.
var cpiBuckets = []obs.StallCause{
	obs.CauseCommit, obs.CauseUncached, obs.CauseCSB, obs.CauseMembar, obs.CauseLSQ, obs.CauseHalted,
}

// layerMetrics sums the machines' statistics and derives the simulated
// per-layer ratios.
func layerMetrics(ms ...*sim.Machine) map[string]float64 {
	var t sim.Stats
	for _, m := range ms {
		s := m.Stats()
		t.CPU.Retired += s.CPU.Retired
		t.CPU.Cycles += s.CPU.Cycles
		for i, v := range s.CPU.CPI {
			t.CPU.CPI[i] += v
		}
		t.UB.StallFull += s.UB.StallFull
		t.UB.Stores += s.UB.Stores
		t.UB.Coalesced += s.UB.Coalesced
		t.CSB.FlushOK += s.CSB.FlushOK
		t.CSB.FlushFail += s.CSB.FlushFail
		t.CSB.StallBusy += s.CSB.StallBusy
		t.Bus.Cycles += s.Bus.Cycles
		t.Bus.BusyCycles += s.Bus.BusyCycles
		t.Bus.Bytes += s.Bus.Bytes
		t.Bus.Transactions += s.Bus.Transactions
		t.Caches.L1D.Hits += s.Caches.L1D.Hits
		t.Caches.L1D.Misses += s.Caches.L1D.Misses
	}
	out := map[string]float64{
		"cpu.ipc":                ratio(t.CPU.Retired, t.CPU.Cycles),
		"uncbuf.stall_full_frac": ratio(t.UB.StallFull, t.CPU.Cycles),
		"uncbuf.coalesce_ratio":  ratio(t.UB.Coalesced, t.UB.Stores),
		"core.flush_ok_ratio":    ratio(t.CSB.FlushOK, t.CSB.FlushOK+t.CSB.FlushFail),
		"core.stall_busy_frac":   ratio(t.CSB.StallBusy, t.CPU.Cycles),
		"bus.util":               ratio(t.Bus.BusyCycles, t.Bus.Cycles),
		"bus.bytes_per_txn":      ratio(t.Bus.Bytes, t.Bus.Transactions),
		"bus.bytes_per_cycle":    ratio(t.Bus.Bytes, t.Bus.Cycles),
		"cache.l1d_miss_ratio":   ratio(t.Caches.L1D.Misses, t.Caches.L1D.Hits+t.Caches.L1D.Misses),
	}
	for _, b := range cpiBuckets {
		out["cpu.cpi."+b.String()] = ratio(t.CPU.CPI[b], t.CPU.Cycles)
	}
	return out
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ---- cluster workloads ----

// wireLatency is the cluster workloads' wire delay in CPU cycles. It is
// also the engine's lookahead window, so nodes meet at a barrier every
// wireLatency cycles; segments are whole multiples of it.
const wireLatency = 120

// trafficGuest is a never-halting ring node: send one word to the next
// node, wait for the NIC to transmit it, drain whatever arrived, repeat.
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

const (
	serveClients = 3
	// serveGap is each client's mean request gap in cycles: 0.65
	// req/kcycle, so three clients offer 1.95 against the CSB server's
	// 2.00 req/kcycle ceiling.
	serveGap = 1538
)

func buildRing(bc buildCfg) (instance, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	mark := start
	cfg := cluster.DefaultConfig()
	cfg.Topology = cluster.TopoRing
	cfg.WireLatency = wireLatency
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, st, err
	}
	st.new += lap(&mark)
	for _, n := range c.Nodes() {
		n.MapIO(false)
		lap(&mark)
		prog, err := n.M.LoadSource("traffic.s", trafficGuest)
		if err != nil {
			return nil, st, err
		}
		st.asm += lap(&mark)
		n.M.WarmProgram(prog)
		st.warm += lap(&mark)
	}
	ci := newClusterInst(c, nil, bc, []int{0, 1})
	st.total = time.Since(start)
	return ci, st, nil
}

func buildServe(bc buildCfg) (instance, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	mark := start
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 1 + serveClients
	cfg.Topology = cluster.TopoStar
	cfg.WireLatency = wireLatency
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, st, err
	}
	st.new += lap(&mark)
	srv := c.Node(0)
	loadgen.ServerMapIO(srv, bench.SendCSB)
	src, err := loadgen.ServerProgram(bench.SendCSB, 8)
	if err != nil {
		return nil, st, err
	}
	lap(&mark)
	prog, err := srv.M.LoadSource("server.s", src)
	if err != nil {
		return nil, st, err
	}
	st.asm += lap(&mark)
	srv.M.WarmProgram(prog)
	st.warm += lap(&mark)
	var gens []*loadgen.Generator
	for i := 1; i <= serveClients; i++ {
		if _, err := c.Node(i).M.LoadSource("client.s", "halt\n"); err != nil {
			return nil, st, err
		}
		st.asm += lap(&mark)
		g := loadgen.New(loadgen.Config{MeanGap: serveGap, Seed: bc.seed + uint64(i), Words: 8, Servers: []int{0}})
		if err := g.Attach(c, i); err != nil {
			return nil, st, err
		}
		gens = append(gens, g)
	}
	// The clients already carry loadgen's hook, so only the server is timed.
	ci := newClusterInst(c, gens, bc, []int{0})
	st.total = time.Since(start)
	return ci, st, nil
}

// clusterInst is one cluster run; gens[k] drives node k+1. The nodes in
// busy run guests that never halt.
type clusterInst struct {
	c      *cluster.Cluster
	gens   []*loadgen.Generator
	busy   []int
	seg    uint64
	segs   uint64
	stamps []*windowStamps
	acc    *traceAcc
}

// newClusterInst wraps c; when traced it installs a window-timing hook on
// each node in hooked, whose guests never halt (so a hook, which keeps a
// node ticking after a halt, changes nothing simulated).
func newClusterInst(c *cluster.Cluster, gens []*loadgen.Generator, bc buildCfg, hooked []int) *clusterInst {
	ci := &clusterInst{c: c, gens: gens, busy: hooked, seg: bc.segCycles, acc: bc.acc}
	if bc.acc != nil {
		for _, i := range hooked {
			s := newWindowStamps(wireLatency, bc.segCycles)
			c.SetNodeHook(i, s.hook)
			ci.stamps = append(ci.stamps, s)
		}
	}
	return ci
}

func (ci *clusterInst) segment() error {
	for _, s := range ci.stamps {
		s.reset()
	}
	if err := ci.c.RunFor(ci.seg, true); err != nil {
		return err
	}
	ci.segs++
	if ci.acc != nil {
		ci.acc.addWindows(ci.stamps, wireLatency)
	}
	return nil
}

func (ci *clusterInst) check() error {
	for _, n := range ci.c.Nodes() {
		if err := n.M.CPU.Err(); err != nil {
			return fmt.Errorf("node %s: %w", n.Name(), err)
		}
		st := n.M.CPU.Stats()
		if st.Cycles != ci.c.Cycle() {
			return fmt.Errorf("node %s counted %d cycles in a %d-cycle run", n.Name(), st.Cycles, ci.c.Cycle())
		}
		if err := checkCPI(st); err != nil {
			return fmt.Errorf("node %s: %w", n.Name(), err)
		}
	}
	for _, i := range ci.busy {
		if ci.c.Node(i).M.CPU.Halted() {
			return fmt.Errorf("node %s halted", ci.c.Node(i).Name())
		}
	}
	if len(ci.gens) == 0 {
		return nil
	}
	var issued, settled uint64
	for k, g := range ci.gens {
		s := g.Stats()
		if s.Completed+s.Lost > s.Issued {
			return fmt.Errorf("client %d: %d completed + %d lost exceed %d issued", k+1, s.Completed, s.Lost, s.Issued)
		}
		if s.Lost != 0 || s.Stray != 0 || s.DuplicateReplies != 0 {
			return fmt.Errorf("client %d: %d lost, %d stray, %d duplicate replies", k+1, s.Lost, s.Stray, s.DuplicateReplies)
		}
		issued += s.Issued
		settled += s.Completed
	}
	// Every completed request was answered by the server, and the server
	// answered no request that was never issued.
	if replies := uint64(len(ci.c.Node(0).NIC.Packets())); replies < settled || replies > issued {
		return fmt.Errorf("server sent %d replies for %d issued and %d completed requests", replies, issued, settled)
	}
	return nil
}

func (ci *clusterInst) fingerprint() uint64 {
	h := fnv.New64a()
	hashJSON(h, ci.c.Cycle())
	for _, n := range ci.c.Nodes() {
		hashStats(h, n.M, n.M.Cycle())
		hashJSON(h, []int{len(n.NIC.Packets()), n.NIC.RxHighWater(), n.NIC.RxPending(), int(n.NIC.Dropped())})
	}
	for _, g := range ci.gens {
		hashJSON(h, g.Stats())
		hashJSON(h, g.Latency().Summary())
	}
	return h.Sum64()
}

func (ci *clusterInst) simMetrics() map[string]float64 {
	var ms []*sim.Machine
	var pkts, dropped uint64
	hw := 0
	for _, n := range ci.c.Nodes() {
		ms = append(ms, n.M)
		pkts += uint64(len(n.NIC.Packets()))
		dropped += n.NIC.Dropped()
		hw = max(hw, n.NIC.RxHighWater())
	}
	out := layerMetrics(ms...)
	cyc := ci.c.Cycle()
	out["cluster.pkts_per_kcycle"] = 1000 * ratio(pkts, cyc)
	out["device.nic_packets_retained"] = float64(pkts)
	out["device.nic_dropped_descs"] = float64(dropped)
	out["device.nic_rx_highwater"] = float64(hw)
	if len(ci.gens) > 0 {
		lat := counters.NewHistogram("latency")
		var done, outstanding uint64
		for _, g := range ci.gens {
			s := g.Stats()
			done += s.Completed
			outstanding += s.Issued - s.Completed - s.Lost
			lat.Merge(g.Latency())
		}
		out["loadgen.req_per_kcycle"] = 1000 * ratio(done, cyc)
		out["loadgen.p50_cycles"] = float64(lat.Quantile(0.50))
		out["loadgen.p99_cycles"] = float64(lat.Quantile(0.99))
		out["loadgen.outstanding_end"] = float64(outstanding)
	}
	return out
}

func (ci *clusterInst) ops() (uint64, uint64) {
	if len(ci.gens) == 0 {
		return ci.segs, 0
	}
	var issued, lost uint64
	for _, g := range ci.gens {
		s := g.Stats()
		issued += s.Issued
		lost += s.Lost
	}
	return issued, lost
}

// ---- figures ----

// figureIDs are the figures `csbfig -list` offers.
var figureIDs = []string{
	"3a", "3b", "3c", "3d", "3e", "3f", "3g", "3h", "3i",
	"4a", "4b", "4c", "4d", "4e",
	"5a", "5b",
	"X1", "X2", "X2L", "X4", "X6", "X8",
}

// buildFigures times the set-up of one figure point (the machine
// bench.MeasureBandwidth builds for a 4 KiB CSB transfer), the cost every
// one of the figures' thousands of points pays.
func buildFigures(bc buildCfg) (instance, setupTimes, error) {
	var st setupTimes
	if _, err := buildStoreMachine(true, 4096, 1<<20, &st); err != nil {
		return nil, st, err
	}
	return &figInst{}, st, nil
}

// figInst regenerates every figure once per segment, timing each figure,
// and keeps the last regeneration's results.
type figInst struct {
	results []bench.Result
	times   []time.Duration
	segs    uint64
}

func (f *figInst) segment() error {
	f.results = make([]bench.Result, 0, len(figureIDs))
	f.times = f.times[:0]
	for _, id := range figureIDs {
		start := time.Now()
		r, err := bench.ByID(id)
		if err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
		f.times = append(f.times, time.Since(start))
		f.results = append(f.results, r)
	}
	f.segs++
	return nil
}

func (f *figInst) unitTimes() []time.Duration { return f.times }

func (f *figInst) fingerprint() uint64 {
	h := fnv.New64a()
	for _, r := range f.results {
		h.Write([]byte(bench.FormatCSV(r)))
	}
	return h.Sum64()
}

func (f *figInst) check() error                   { return nil }
func (f *figInst) simMetrics() map[string]float64 { return nil }
func (f *figInst) ops() (uint64, uint64)          { return f.segs, 0 }

// figureReference regenerates the figures once on a single sweep worker;
// every parallel regeneration must hash the same.
func figureReference() ([]uint64, error) {
	prev := bench.Workers()
	bench.SetWorkers(1)
	defer bench.SetWorkers(prev)
	f := &figInst{}
	if err := f.segment(); err != nil {
		return nil, err
	}
	return []uint64{f.fingerprint()}, nil
}
