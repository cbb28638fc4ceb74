// Package cluster joins N simulated machines with a network fabric,
// turning the single-node simulator into the workstation-cluster setting
// that motivates the paper (§2: NOW-style fine-grain communication, DEC
// Memory Channel, Atoll). Each node is a machine built with its own NIC
// (Config.Node.NIC, which the cluster requires); packets transmitted
// by one node are routed over a directed link — after the link's latency,
// serialization and queueing — into the destination node's receive queue,
// where software picks them up with destructive uncached loads.
//
// Topologies: full mesh, ring and star (see topology.go), with per-link
// latency/bandwidth/queue-depth overrides. A guest steers packets with
// the NIC's RegTxDest register; packets left on the default route go to
// the topology's natural next hop.
//
// Execution: one windowed conservative-lookahead engine (engine.go). Each
// node runs whole windows of cycles — spread over up to GOMAXPROCS host
// threads, or inline when parallel is off or one node holds the work —
// bounded by the minimum link latency so no inbound packet can be
// missed. At a latency of 0 or 1 a window runs to the earliest cycle a
// node's NIC can put a packet on the wire (its transmit lead) plus the
// latency, except while a node hook is live or the watchdog is armed,
// which keep one-cycle windows. Within a window a node jumps through its
// quiet cycles to its next event. Run advances until every node halts and
// the fabric drains, RunFor for a fixed horizon.
//
// Observability: AttachTrace extends the per-node journey tracers across
// the wire — every pumped packet opens a wire journey in the cluster's
// own tracer (its ID rides the flight as a side channel, never
// guest-visible), which continues the sender's descriptor journey and
// stamps wire_depart/wire_arrive/rx_enqueue/rx_drain on the one cluster
// clock, so each packet's hops telescope to its send→receive latency.
// AttachCounters registers the cluster-level wire
// counters in every node's registry (so they surface in reports and
// watchdog dumps), and AttachRecorder rolls every registry into a flight
// recording on a sim-cycle cadence — the stream the csbrec top
// dashboard follows. All tracer mutations funnel through per-node event logs
// replayed single-threaded (see engine.go), so the parallel schedule
// stays byte-identical to the inline one.
package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"csbsim/internal/device"
	"csbsim/internal/fault"
	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/journey"
	"csbsim/internal/obs/rec"
	"csbsim/internal/sim"
)

// Config parameterizes the cluster.
type Config struct {
	// Node configures every node's machine. Its NIC must be set: a node
	// reaches the fabric through it.
	Node sim.Config
	// Nodes is the node count (0 = two nodes).
	Nodes int
	// Topology selects the wiring (default full mesh; for two nodes all
	// three shapes coincide).
	Topology Topology
	// WireLatency is the propagation delay in *CPU cycles* from a packet
	// completing transmission to its words appearing in the receiver's
	// RX queue, applied to every link (override per link with SetLink).
	// Zero is allowed: the engine then ends its windows at the nodes'
	// transmit lead (engine.go) and delivers the packet in the cycle it
	// was pumped.
	WireLatency uint64
	// Bandwidth is the default link serialization cost in cycles per
	// 8-byte word (0 = infinitely fast links).
	Bandwidth uint64
	// LinkDepth bounds packets in flight per link (0 = unbounded);
	// overflow drops the packet and counts cluster/link_drops.
	LinkDepth int
	// RxEnqueueDelay is the extra delay in CPU cycles between a packet
	// arriving at the receiving NIC (wire_arrive) and its words becoming
	// visible in the RX queue (rx_enqueue) — the receive-side staging the
	// paper's NI discussion implies. 0 (the default) preserves the
	// historical instant-enqueue behavior.
	RxEnqueueDelay uint64
}

// DefaultConfig builds two paper-default nodes, each with the default
// NIC, joined by a 120-cycle wire (~200 ns at the paper's 600 MHz).
func DefaultConfig() Config {
	node := sim.DefaultConfig()
	nic := device.DefaultConfig()
	node.NIC = &nic
	return Config{Node: node, Nodes: 2, WireLatency: 120}
}

// NodeHook is a host-side driver for one node (a load generator): it runs
// before the node's machine tick, every cycle unless SetNodeWake gives it
// a wake function, on whichever pool thread runs the node's window under
// the parallel engine, and may touch only that node's state (its NIC, its
// registers). Returning false retires the hook; a node with a live hook is
// kept ticking even when its CPU has halted, so hook-injected NIC work
// still progresses.
type NodeHook func(cycle uint64) bool

// Node is one machine and its endpoint state on the fabric. NIC is the
// machine's own (M.NIC()).
type Node struct {
	M   *sim.Machine
	NIC *device.NIC

	name      string
	idx       int
	delivered int // packets already pumped off the NIC

	hook     NodeHook
	hookDone bool
	// wake, when set (SetNodeWake), returns the next cycle the hook must
	// run; wakeAt holds its last answer, and rxWoke asks for a call in the
	// cycle after an RX delivery.
	wake   func() uint64
	wakeAt uint64
	rxWoke bool

	// inbox holds this node's inbound flights ordered by (due, seq):
	// [0:enqPos) fully delivered, [enqPos:arrPos) arrived but staging,
	// [arrPos:) still on the wire. Only the node's own window touches the
	// positions; the coordinator appends at barriers.
	inbox  []flight
	arrPos int
	enqPos int

	// outbox collects packets pumped off the NIC during a window, routed
	// by the coordinator at the next barrier.
	outbox []departure
	// slab is the chunk pumped packets' words are cut from, slab[:slabUsed]
	// already handed out (packetWords).
	slab     []uint64
	slabUsed int

	// tlog defers tracer mutations made during a window (rx drain hooks,
	// arrive/enqueue stamps) for single-threaded replay at the barrier.
	tlog []traceEvent

	// frozen marks a node the scheduler no longer ticks: its CPU halted
	// with everything settled (and no live hook), or it faulted. quietAt
	// is the cycle the node last froze or retired its hook.
	frozen  bool
	quietAt uint64
	err     error
	// lastEnq is the cycle the last flight entered the NIC RX queue.
	lastEnq uint64

	// haltAt is the first cluster cycle after whose tick the CPU read
	// halted; 0 until then.
	haltAt uint64

	// down marks a node the cluster watchdog declared wedged and removed
	// from service under graceful degradation: it is no longer ticked and
	// packets routed to it are dropped (cluster/degraded_drops).
	down bool
}

// Name returns the node's cluster-local name ("n0", "n1", …).
func (n *Node) Name() string { return n.name }

// Index returns the node's position in the topology.
func (n *Node) Index() int { return n.idx }

// flight is one packet scheduled onto a link, waiting out its due times
// in the destination's inbox.
type flight struct {
	words   []uint64
	due     uint64 // cluster cycle the wire latency elapses (wire_arrive)
	dueEnq  uint64 // cluster cycle the words enter the RX queue (rx_enqueue)
	traceID uint64 // wire journey ID, 0 when untraced
	seq     uint64 // global routing sequence — total delivery order tiebreak
}

// departure is one packet pumped off a NIC during a window, not yet
// routed: the coordinator turns it into a flight at the barrier.
type departure struct {
	cycle   uint64 // pump cycle (wire_depart stamp)
	dest    int    // explicit destination from RegTxDest, -1 = default route
	size    uint32
	jid     uint64 // sender-side descriptor journey ID, 0 untraced
	fifoBus uint64 // NIC bus-cycle push stamp (fallback when journey evicted)
	words   []uint64
}

// traceEvent is one deferred tracer mutation.
type traceEvent struct {
	kind  uint8
	id    uint64
	cycle uint64
}

const (
	evArrive uint8 = iota
	evEnqueue
	evDrain
)

// Cluster is N nodes and the fabric between them.
type Cluster struct {
	nodes []*Node
	cfg   Config
	cycle uint64
	links [][]*link
	route []int // default destination per node, -1 = must steer

	seq        uint64 // flight sequence numbers (total routing order)
	routePos   []int  // routeAll's per-node outbox positions, reused each barrier
	routeDrops uint64 // packets with no usable destination
	linkDrops  uint64 // packets refused by a full link queue

	// sched picks each window's host schedule from the nodes' effort
	// (engine.go); its cost persists across Run and RunFor calls.
	sched windowSched

	// Wire fault-injection state; nil when unattached. Consumed only at
	// the routing barrier, in the global (pump cycle, node index, push
	// order) routing order, so the schedule does not depend on parallelism.
	wfaults          *fault.Injector
	faultDrops       uint64 // packets dropped by WireDrop
	faultDups        uint64 // duplicate deliveries injected by WireDup
	faultDelayCycles uint64 // extra propagation cycles injected by WireDelay
	outageDrops      uint64 // packets dropped inside link outage windows

	// Cluster watchdog state (see watchdog.go); wdWindow 0 = disabled.
	wdWindow      uint64
	wdDegrade     bool
	wdLast        []uint64 // last observed retired-instruction count per node
	wdMark        []uint64 // cluster cycle of last observed progress per node
	nodesDown     uint64   // nodes removed from service by degradation
	degradedDrops uint64   // packets dropped because their destination is down

	// Optional observability state; nil/zero when unattached.
	tracer     *journey.WireTracer // the wire journeys
	reg        *counters.Registry  // cluster-level registry (wire journey series, wire counters)
	countersOn bool
	rec        *rec.Recorder
	recEvery   uint64
	lastRoll   uint64
}

// New builds an N-node cluster (cfg.Nodes, default 2) wired per
// cfg.Topology. Nodes are named "n0" … "n<N-1>". The caller maps I/O
// space (sim.Machine.MapNIC) and loads programs on each node's machine.
func New(cfg Config) (*Cluster, error) {
	c := &Cluster{}
	if err := c.Reset(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// newNode builds node i's machine, its NIC with it.
func newNode(cfg Config, i int) (*Node, error) {
	m, err := sim.New(cfg.Node)
	if err != nil {
		return nil, err
	}
	return &Node{M: m, NIC: m.NIC(), name: fmt.Sprintf("n%d", i), idx: i}, nil
}

// Reset returns c to the state New(cfg) would build, keeping what its
// nodes have grown: each kept node's machine is reset with its NIC
// (sim.Machine.Reset), and the node keeps its inbox, outbox, word slab
// (rewound) and event log storage. Nodes beyond the old count are built
// afresh and surplus ones dropped. Everything attached after New goes:
// node hooks, link overrides, wire faults, the watchdog, counters,
// tracers and the recorder; the window schedule forgets its costs. A run
// in progress is abandoned. An invalid cfg, nodes without a NIC among
// them, is refused before anything is touched. New is Reset on a zero
// Cluster.
func (c *Cluster) Reset(cfg Config) error {
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	if cfg.Nodes < 1 {
		return fmt.Errorf("cluster: invalid node count %d", cfg.Nodes)
	}
	if cfg.Node.NIC == nil {
		return fmt.Errorf("cluster: nodes need a NIC (Config.Node.NIC is nil)")
	}
	if err := cfg.Node.Validate(); err != nil {
		return err
	}
	nodes := c.nodes[:min(len(c.nodes), cfg.Nodes)]
	clear(c.nodes[len(nodes):])
	for i, n := range nodes {
		if err := n.M.Reset(cfg.Node); err != nil {
			return err
		}
		*n = Node{M: n.M, NIC: n.M.NIC(), name: n.name, idx: i,
			inbox: n.inbox[:0], outbox: n.outbox[:0], slab: n.slab, tlog: n.tlog[:0]}
	}
	for i := len(nodes); i < cfg.Nodes; i++ {
		n, err := newNode(cfg, i)
		if err != nil {
			return err
		}
		nodes = append(nodes, n)
	}
	links, route := buildLinks(cfg)
	*c = Cluster{nodes: nodes, cfg: cfg, links: links, route: route,
		routePos: resized(c.routePos, cfg.Nodes),
		sched:    windowSched{cost: resized(c.sched.cost, cfg.Nodes), seen: resized(c.sched.seen, cfg.Nodes)}}
	return nil
}

// resized returns s with length n, zeroed, reusing its backing array
// when it is large enough.
func resized[T int | uint64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// MapIO is n.M.MapNIC(csb), kept for the benchmark harness
// (cmd/csbperf), which calls it.
func (n *Node) MapIO(csb bool) { n.M.MapNIC(csb) }

// Cycle returns the global cluster cycle.
func (c *Cluster) Cycle() uint64 { return c.cycle }

// NumNodes returns the node count.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Nodes returns all nodes in topology order. The returned slice is the
// cluster's own — treat it as read-only.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// SetNodeHook installs a host-side driver on node i (see NodeHook), called
// every cycle until SetNodeWake gives it a wake function. Install before
// running.
func (c *Cluster) SetNodeHook(i int, h NodeHook) {
	n := c.nodes[i]
	n.hook = h
	n.hookDone = false
	n.wake = nil
}

// SetNodeWake lets node i's hook sleep between events: the hook is called
// only at the cycle next returns and in the cycle after an RX delivery to
// the node, and next is asked again after every call. next runs on the
// node's window thread and may read only the hook's own state. It must
// never return a cycle after one at which the hook would act; an earlier
// one is safe, since a hook called when nothing is due must do nothing.
// Between calls the node's window jumps through quiet cycles (runWindow).
// A nil next restores per-cycle calls. Call after SetNodeHook, before
// running.
func (c *Cluster) SetNodeWake(i int, next func() uint64) {
	n := c.nodes[i]
	n.wake = next
	n.wakeAt = 0
}

// hookActive reports whether the node has a live hook.
func (n *Node) hookActive() bool { return n.hook != nil && !n.hookDone }

// ---- observability attachment ----

// AttachCounters creates (once) the cluster-level counter registry and
// registers the fabric series — the packets-in-flight and
// wire-occupancy gauges, routing/link drops, and each node's RX-queue
// high-water mark — in every node's machine registry (so they surface in
// per-node reports and watchdog dumps) as well as the cluster registry
// (the recording's "cluster" source).
func (c *Cluster) AttachCounters() *counters.Registry {
	if c.countersOn {
		return c.reg
	}
	c.countersOn = true
	c.reg = counters.NewRegistry()
	for _, n := range c.nodes {
		r := n.M.AttachCounters()
		c.registerWireCounters(r)
		nic := n.NIC
		r.Counter("cluster/rx_highwater", func() uint64 { return uint64(nic.RxHighWater()) })
	}
	c.registerWireCounters(c.reg)
	c.reg.Gauge("cluster/nodes", func() uint64 { return uint64(len(c.nodes)) })
	for _, n := range c.nodes {
		nic := n.NIC
		c.reg.Counter("cluster/"+n.name+"/rx_highwater", func() uint64 { return uint64(nic.RxHighWater()) })
		c.reg.Counter("cluster/"+n.name+"/packets_sent", func() uint64 { return uint64(len(nic.Packets())) })
		c.reg.Gauge("cluster/"+n.name+"/rx_pending", func() uint64 { return uint64(nic.RxPending()) })
	}
	return c.reg
}

// registerWireCounters registers the shared fabric-state counters and
// gauges in r.
// The closures walk per-node inboxes; they are only read at barriers or
// after a run, when no node window is running.
func (c *Cluster) registerWireCounters(r *counters.Registry) {
	r.Gauge("cluster/packets_in_flight", func() uint64 {
		var n uint64
		for _, nd := range c.nodes {
			n += uint64(len(nd.inbox) - nd.enqPos)
		}
		return n
	})
	r.Gauge("cluster/wire_occupancy_words", func() uint64 {
		var words uint64
		for _, nd := range c.nodes {
			for i := nd.arrPos; i < len(nd.inbox); i++ {
				words += uint64(len(nd.inbox[i].words))
			}
		}
		return words
	})
	r.Counter("cluster/route_drops", func() uint64 { return c.routeDrops })
	r.Counter("cluster/link_drops", func() uint64 { return c.linkDrops })
	// Per-directed-link breakdown of link_drops, so one saturated or
	// faulted link is attributable in dumps and csbrec top.
	for i := range c.links {
		for j := range c.links[i] {
			if lk := c.links[i][j]; lk != nil {
				r.Counter("cluster/link_drops/"+c.nodes[i].name+"->"+c.nodes[j].name,
					func() uint64 { return lk.drops })
			}
		}
	}
	// Wire fault injection and graceful degradation. Registered
	// unconditionally (zero when no injector/watchdog is attached) so
	// snapshots have a stable shape.
	r.Counter("cluster/fault_drops", func() uint64 { return c.faultDrops })
	r.Counter("cluster/fault_dups", func() uint64 { return c.faultDups })
	r.Counter("cluster/fault_delay_cycles", func() uint64 { return c.faultDelayCycles })
	r.Counter("cluster/outage_drops", func() uint64 { return c.outageDrops })
	r.Counter("cluster/nodes_down", func() uint64 { return c.nodesDown })
	r.Counter("cluster/degraded_drops", func() uint64 { return c.degradedDrops })
}

// AttachWireFaults creates the cluster's wire fault injector from cfg
// (only the cluster-scope wire classes are consumed; machine classes in
// cfg are ignored — attach those per node with sim.Machine.AttachFaults).
// The injector draws at the single-threaded routing barrier in the global
// routing order, so a parallel run stays byte-identical to an inline one
// under any seed. Attach before running.
func (c *Cluster) AttachWireFaults(cfg fault.Config) (*fault.Injector, error) {
	if c.wfaults != nil {
		return nil, fmt.Errorf("cluster: wire faults already attached")
	}
	if !cfg.WireEnabled() {
		return nil, fmt.Errorf("cluster: wire fault config enables no wire class (want WireDrop/WireDup/WireDelay/LinkOutage)")
	}
	inj, err := fault.New(cfg)
	if err != nil {
		return nil, err
	}
	c.wfaults = inj
	return inj, nil
}

// WireFaults returns the attached wire fault injector, or nil.
func (c *Cluster) WireFaults() *fault.Injector { return c.wfaults }

// Registry returns the cluster-level counter registry (nil until
// AttachCounters or AttachTrace).
func (c *Cluster) Registry() *counters.Registry { return c.reg }

// AttachTrace enables cross-node tracing: a journey tracer on every
// machine, the cluster's wire-journey tracer whose series land in the
// cluster registry, and the NIC RX drain hooks. An attached recorder,
// whether attached before or after, writes every tracer's journeys into
// the recording. The nodes' clock domains need no alignment: the
// lookahead barrier keeps all node clocks within one window of the
// cluster cycle, and all stamps are taken in cluster cycles, so the
// domains coincide exactly. Attach before running.
func (c *Cluster) AttachTrace() (*journey.WireTracer, error) {
	if c.tracer != nil {
		return c.tracer, nil
	}
	c.AttachCounters()
	c.tracer = journey.NewWireTracer(c.reg)
	for _, n := range c.nodes {
		if _, err := n.M.AttachJourneys(); err != nil {
			return nil, err
		}
		node := n
		// Drain stamps are deferred to the node's event log and replayed
		// at the barrier: the hook fires on the node's goroutine under the
		// parallel engine, where the shared tracer must not be touched.
		//csb:worker RX drain hook fires inside the node's window
		n.NIC.SetRxDrainHook(func(id uint64) {
			node.logEvent(evDrain, id, node.M.Cycle())
		})
	}
	if c.rec != nil {
		if err := c.addJourneys(c.rec); err != nil {
			return nil, err
		}
	}
	return c.tracer, nil
}

// Trace returns the attached wire-journey tracer, or nil.
func (c *Cluster) Trace() *journey.WireTracer { return c.tracer }

// addJourneys hands the recorder every node's journey tracer and the
// cluster's, in topology order.
func (c *Cluster) addJourneys(r *rec.Recorder) error {
	for _, n := range c.nodes {
		if err := r.AddJourneys(n.name, n.M.Journeys()); err != nil {
			return err
		}
	}
	return r.AddJourneys("cluster", c.tracer.Tracer)
}

// AttachRecorder attaches a flight recorder: every node's registry plus
// the cluster registry become recorder sources, every journey tracer
// (attached before or after) writes its journeys into the recording at
// its close, and the cluster rolls a window every recorder-cadence
// cycles at the single-threaded barrier (so recordings of parallel runs
// are byte-identical to sequential ones). Cluster events — watchdog
// fires, node-down transitions, wire outage windows — land in the
// recording's event log.
// Attach before running, after any loadgen/workload registration that
// creates counters.
func (c *Cluster) AttachRecorder(r *rec.Recorder) error {
	if c.rec != nil {
		return fmt.Errorf("cluster: recorder already attached")
	}
	c.AttachCounters()
	for _, n := range c.nodes {
		if err := r.AddSource(n.name, n.M.Counters()); err != nil {
			return err
		}
	}
	if err := r.AddSource("cluster", c.reg); err != nil {
		return err
	}
	if c.tracer != nil {
		if err := c.addJourneys(r); err != nil {
			return err
		}
	}
	c.rec = r
	c.recEvery = r.Every()
	return nil
}

// Recorder returns the attached flight recorder, or nil.
func (c *Cluster) Recorder() *rec.Recorder { return c.rec }

// startObs seals the recorder's series tables at run start (all counter
// registration has happened by then — sources register lazily right up
// to the first window). Idempotent; called at the top of every run.
//
//csb:barrier reads every source registry; no node window is running
func (c *Cluster) startObs() {
	if c.rec == nil {
		return
	}
	c.rec.Start(c.cycle)
	c.lastRoll = c.cycle
}

// maybeRoll closes a recorder window once per cadence interval: the
// barrier's only observation cadence.
//
//csb:barrier reads every source registry; no node window is running
func (c *Cluster) maybeRoll() {
	if c.rec != nil && c.cycle-c.lastRoll >= c.recEvery {
		c.lastRoll = c.cycle
		c.rec.Roll(c.cycle)
	}
}

// recEvent logs one cluster event into the recording (no-op when no
// recorder is attached). All call sites run at barriers in the global
// deterministic order, so event logs do not depend on parallelism.
//
//csb:barrier appends to the recorder's shared event log
func (c *Cluster) recEvent(cycle uint64, kind, node string, value float64) {
	if c.rec != nil {
		c.rec.Event(cycle, kind, node, "", value)
	}
}

// flushObs drains buffered observability state on any Run exit — every
// node's partial metrics windows, the deferred trace logs, the
// recorder's final partial window plus footer — so a wedged or faulted
// node still yields a partial dump, mirroring the single-node flushObs
// abort behavior.
//
//csb:barrier drains every node's deferred state; no node window is running
func (c *Cluster) flushObs() {
	c.drainTraceLogs()
	for _, n := range c.nodes {
		n.M.FlushObs()
	}
	if c.rec != nil {
		c.rec.Flush(c.cycle)
	}
}

// ---- per-node window mechanics ----

// logEvent defers one tracer mutation to the node's event log.
//
//csb:hotpath
func (n *Node) logEvent(kind uint8, id, cycle uint64) {
	n.tlog = append(n.tlog, traceEvent{kind: kind, id: id, cycle: cycle}) //csb:alloc-ok amortized log growth, truncated each barrier
}

// wordSlab is the chunk size, in words, pumped packets' words are cut
// from.
const wordSlab = 512

// packetWords returns an empty buffer of capacity k for a pumped packet's
// words, cut from the node's slab with its capacity capped, as
// NIC.packetData cuts sent packets' bytes: a pump allocates once per
// wordSlab words, and a packet's words stay read-only once routed.
func (n *Node) packetWords(k int) []uint64 {
	if len(n.slab)-n.slabUsed < k {
		n.slab = make([]uint64, max(wordSlab, k))
		n.slabUsed = 0
	}
	words := n.slab[n.slabUsed : n.slabUsed : n.slabUsed+k]
	n.slabUsed += k
	return words
}

// pump picks up newly transmitted packets from the node's NIC and stages
// them in its outbox for routing at the next barrier.
func (n *Node) pump(cycle uint64) {
	pkts := n.NIC.Packets()
	for ; n.delivered < len(pkts); n.delivered++ {
		p := &pkts[n.delivered]
		words := n.packetWords((len(p.Data) + 7) / 8)
		for i := 0; i < len(p.Data); i += 8 {
			var w uint64
			for k := 7; k >= 0; k-- {
				idx := i + k
				var b byte
				if idx < len(p.Data) {
					b = p.Data[idx]
				}
				w = w<<8 | uint64(b)
			}
			words = append(words, w)
		}
		n.outbox = append(n.outbox, departure{
			cycle:   cycle,
			dest:    p.Dest,
			size:    uint32(len(p.Data)),
			jid:     p.JID,
			fifoBus: p.FIFOPush,
			words:   words,
		})
	}
}

// applyDue advances the node's inbox to `cycle`: flights whose wire
// latency elapsed are stamped wire_arrive, and flights whose staging
// delay also elapsed enter the NIC RX queue (rx_enqueue). Stamps use the
// flights' own due cycles, so catching a frozen node up over a whole
// window is exact.
//
//csb:hotpath
func (n *Node) applyDue(cycle uint64) {
	for n.arrPos < len(n.inbox) && n.inbox[n.arrPos].due <= cycle {
		f := &n.inbox[n.arrPos]
		if f.traceID != 0 {
			n.logEvent(evArrive, f.traceID, f.due)
		}
		n.arrPos++
	}
	for n.enqPos < n.arrPos && n.inbox[n.enqPos].dueEnq <= cycle {
		f := &n.inbox[n.enqPos]
		n.NIC.DeliverWords(f.traceID, f.words)
		if f.traceID != 0 {
			n.logEvent(evEnqueue, f.traceID, f.dueEnq)
		}
		n.lastEnq = f.dueEnq
		f.words = nil
		n.enqPos++
		n.rxWoke = true
	}
}

// ---- barrier mechanics (single-threaded) ----

// drainTraceLogs replays every node's deferred tracer mutations into the
// cluster's wire tracer, in node-index order. Arrive/enqueue/drain
// stamps commute across packets (independent journey stamps, order-free
// histogram and counter updates), so replay order between nodes cannot
// affect the final trace state — within a node the log is chronological.
//
//csb:barrier replays deferred tracer mutations into the shared tracer
func (c *Cluster) drainTraceLogs() {
	if c.tracer == nil {
		return
	}
	for _, n := range c.nodes {
		for i := range n.tlog {
			ev := &n.tlog[i]
			switch ev.kind {
			case evArrive:
				c.tracer.WireArrived(ev.id, ev.cycle)
			case evEnqueue:
				c.tracer.WireEnqueued(ev.id, ev.cycle)
			case evDrain:
				c.tracer.WireDrained(ev.id, ev.cycle)
			}
		}
		n.tlog = n.tlog[:0]
	}
}

// routeAll drains every node's outbox in one global deterministic order —
// (pump cycle, node index, push order) — turning departures into flights
// scheduled on links and inserted into destination inboxes.
//
//csb:barrier mutates every node's inbox and the shared link state
func (c *Cluster) routeAll() {
	pos := c.routePos
	clear(pos)
	touched := false
	for {
		best := -1
		for i, n := range c.nodes {
			if pos[i] >= len(n.outbox) {
				continue
			}
			if best == -1 || n.outbox[pos[i]].cycle < c.nodes[best].outbox[pos[best]].cycle {
				best = i
			}
		}
		if best == -1 {
			break
		}
		c.routeOne(best, &c.nodes[best].outbox[pos[best]])
		pos[best]++
		touched = true
	}
	for _, n := range c.nodes {
		n.outbox = n.outbox[:0]
	}
	if !touched {
		return
	}
	// Restore (due, seq) order on every inbox tail that may have received
	// out-of-order inserts (bandwidth queueing can reorder dues).
	for _, n := range c.nodes {
		if tail := n.inbox[n.arrPos:]; len(tail) > 1 {
			slices.SortFunc(tail, func(a, b flight) int {
				if a.due != b.due {
					return cmp.Compare(a.due, b.due)
				}
				return cmp.Compare(a.seq, b.seq)
			})
		}
	}
}

// routeOne schedules one departure onto its link. Wire faults are drawn
// here — and only here — in the global routing order: outage window,
// drop, extra delay, then duplication, a fixed draw sequence per packet
// so the schedule is a pure function of (fault seed, traffic).
//
//csb:barrier writes the destination node's inbox and link queues
func (c *Cluster) routeOne(from int, d *departure) {
	dest := d.dest
	if dest < 0 {
		dest = c.route[from]
	}
	if dest < 0 || dest >= len(c.nodes) || dest == from || c.links[from][dest] == nil {
		c.routeDrops++
		return
	}
	if c.nodes[dest].down {
		// Destination removed from service by the watchdog: degraded-mode
		// drop, surfaced separately from fault/queue drops.
		c.degradedDrops++
		c.dropWire(from, dest, d)
		return
	}
	lk := c.links[from][dest]
	if inj := c.wfaults; inj != nil {
		if lk.outageUntil <= d.cycle {
			if n := inj.LinkOutage(); n > 0 {
				lk.outageUntil = d.cycle + uint64(n)
				c.recEvent(d.cycle, "link_outage", c.nodes[from].name+"->"+c.nodes[dest].name, float64(n))
			}
		}
		if d.cycle < lk.outageUntil {
			c.outageDrops++
			c.dropWire(from, dest, d)
			return
		}
		if inj.DropPacket() {
			c.faultDrops++
			c.dropWire(from, dest, d)
			return
		}
	}
	if lk.Depth > 0 {
		// Prune arrivals, then check the bound.
		keep := lk.pending[:0]
		for _, due := range lk.pending {
			if due > d.cycle {
				keep = append(keep, due)
			}
		}
		lk.pending = keep
		if len(lk.pending) >= lk.Depth {
			c.linkDrops++
			lk.drops++
			return
		}
	}
	dup := false
	extra := uint64(0)
	if inj := c.wfaults; inj != nil {
		extra = uint64(inj.PacketDelay())
		c.faultDelayCycles += extra
		dup = inj.DupPacket()
	}
	due := lk.schedule(d.cycle, len(d.words), extra)
	f := c.newFlight(d.words, due)
	if c.tracer != nil {
		f.traceID = c.openWire(from, dest, d)
	}
	c.nodes[dest].inbox = append(c.nodes[dest].inbox, f)
	if dup {
		// The duplicate rides one wire latency behind the original,
		// re-serializing through the link front; it is subject to the
		// same queue bound, and is never traced (the wire journey belongs
		// to the original delivery).
		c.faultDups++
		if lk.Depth > 0 && len(lk.pending) >= lk.Depth {
			c.linkDrops++
			lk.drops++
			return
		}
		c.nodes[dest].inbox = append(c.nodes[dest].inbox, c.newFlight(d.words, lk.schedule(due, len(d.words), 0)))
	}
}

// newFlight numbers a routed packet's delivery in the global routing
// order.
func (c *Cluster) newFlight(words []uint64, due uint64) flight {
	c.seq++
	return flight{words: words, due: due, dueEnq: due + c.cfg.RxEnqueueDelay, seq: c.seq}
}

// dropWire records a packet the fabric discarded (outage, injected
// drop, or degraded destination) as an aborted wire journey, so the
// recording shows the loss instead of leaking an open journey.
//
//csb:barrier stamps the shared wire tracer
func (c *Cluster) dropWire(from, dest int, d *departure) {
	if c.tracer == nil {
		return
	}
	c.tracer.WireDropped(c.openWire(from, dest, d))
}

// openWire opens a routed packet's wire journey, linked to the sender's
// descriptor journey (the packet carries its ID) and starting from that
// journey's stamps. When the journey has been evicted — or the sender is
// untraced — the NIC's bus-cycle stamps are scaled to the CPU-cycle
// domain as a fallback.
//
//csb:barrier reads the sender's journey tracer and stamps the shared wire tracer
func (c *Cluster) openWire(from, dest int, d *departure) uint64 {
	var fifoPush, txStart uint64
	if jt := c.nodes[from].M.Journeys(); jt != nil && d.jid != 0 {
		if j, ok := jt.Lookup(journey.KindNICDesc, d.jid); ok {
			fifoPush = j.T[journey.HopStart]
			txStart = j.T[journey.HopDepart]
		}
	}
	if fifoPush == 0 {
		fifoPush = d.fifoBus * uint64(c.cfg.Node.Ratio)
	}
	if txStart == 0 {
		txStart = fifoPush
	}
	return c.tracer.WireDeparted(c.nodes[from].name, c.nodes[dest].name, d.size,
		d.jid, fifoPush, txStart, d.cycle)
}

// compactInboxes releases fully delivered inbox prefixes.
//
//csb:barrier rewrites inbox slices the node windows index into
func (c *Cluster) compactInboxes() {
	for _, n := range c.nodes {
		switch {
		case n.enqPos == len(n.inbox):
			n.inbox = n.inbox[:0]
			n.arrPos, n.enqPos = 0, 0
		case n.enqPos >= 1024:
			kept := copy(n.inbox, n.inbox[n.enqPos:])
			n.inbox = n.inbox[:kept]
			n.arrPos -= n.enqPos
			n.enqPos = 0
		}
	}
}

// haltSummary renders each node's halt state for limit-exceeded errors.
func (c *Cluster) haltSummary() string {
	s := ""
	for i, n := range c.nodes {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s halted=%v", n.name, n.M.CPU.Halted())
	}
	return s
}
