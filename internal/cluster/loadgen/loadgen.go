// Package loadgen is the service-scale traffic model: an open-loop load
// generator that streams request packets from client nodes at a
// configurable offered rate against server nodes, measuring per-request
// round-trip latency into the PR 5 histogram registry. It scales the
// paper's microbenchmark story (§7 "realistic applications") to a
// serving workload: many simulated users' requests multiplexed onto a
// client node, servers answering with uncached-store, CSB-batched or DMA
// replies, and throughput/p50/p99 curves versus offered load falling out
// of the registry.
//
// The generator is a cluster.NodeHook: it runs on its node's goroutine
// under the parallel engine and touches only that node's NIC (injecting
// requests host-side, draining replies with destructive pops), so the
// windowed scheduler's determinism guarantee extends to serving runs. It
// registers a wake function (cluster.SetNodeWake), so the cluster calls
// it only at its next issue, deadline or retry and after a reply lands,
// and jumps its halted node through the cycles between.
// Open loop means arrivals never wait for completions — the
// characteristic that exposes queueing collapse past saturation, which a
// closed-loop (ping-pong) benchmark structurally cannot show.
//
// Inter-arrival gaps come from a seeded fault.PRNG under three
// distributions (uniform, bursty, heavy-tailed Pareto), the synthetic
// shapes the Boukhobza/Timsit trace-simulation work validates against.
//
// Request reliability: with Config.Timeout set, every request carries a
// deadline; a timed-out request is retried up to MaxRetries times with
// exponential backoff plus seeded jitter (and failover to the next
// server when several are configured), then counted lost. Each attempt
// stamps a generation number into the request header, and the reply
// echoes it — a late or wire-duplicated reply whose generation does not
// match the live attempt is suppressed (duplicate_replies), the paper's
// §3.2 check-and-retry discipline lifted to the request layer. Goodput
// counts completions within one timeout of first issue; retried
// completions also land in a dedicated retry-latency histogram.
package loadgen

import (
	"fmt"
	"math"

	"csbsim/internal/cluster"
	"csbsim/internal/device"
	"csbsim/internal/fault"
	"csbsim/internal/obs/counters"
)

// Dist selects the inter-arrival time distribution.
type Dist int

const (
	// DistUniform draws gaps uniformly from [gap/2, 3·gap/2).
	DistUniform Dist = iota
	// DistBursty issues back-to-back bursts of 8 requests separated by
	// long off-periods, preserving the configured mean rate.
	DistBursty
	// DistHeavyTail draws gaps from a Pareto(α=1.5) whose mean is the
	// configured gap — rare very long gaps, many short ones.
	DistHeavyTail
)

// ParseDist maps the CLI spellings onto a Dist.
func ParseDist(s string) (Dist, error) {
	switch s {
	case "uniform":
		return DistUniform, nil
	case "bursty":
		return DistBursty, nil
	case "heavytail", "heavy-tail", "pareto":
		return DistHeavyTail, nil
	}
	return 0, fmt.Errorf("unknown distribution %q (want uniform, bursty or heavytail)", s)
}

// String renders the distribution's canonical CLI spelling.
func (d Dist) String() string {
	switch d {
	case DistUniform:
		return "uniform"
	case DistBursty:
		return "bursty"
	case DistHeavyTail:
		return "heavytail"
	}
	return fmt.Sprintf("dist(%d)", int(d))
}

// burstLen is the fixed burst size of DistBursty.
const burstLen = 8

// pendingCap is the request-tracking ring size (power of two). A request
// whose slot is overwritten before its reply arrives is counted lost —
// the open-loop analogue of a timeout.
const pendingCap = 1 << 13

// idMask extracts the request ID from a header word: bits 39:0 carry the
// ID, bits 47:40 the attempt generation, bits 63:48 the client node —
// byte-identical to the historical 48-bit-ID encoding while generations
// stay zero (no retries).
const idMask = 1<<40 - 1

// maxBackoff caps the exponential backoff so a retry is never scheduled
// past any practical horizon; BackoffBase<<attempt saturates at it.
const maxBackoff = 1 << 22

// maxMeanGap bounds MeanGap so every gap draw stays in range: the
// bursty off-period MeanGap·burstLen and the Pareto cap 100·MeanGap fit
// an int with room to spare.
const maxMeanGap = 1 << 48

// Config parameterizes one generator.
type Config struct {
	// MeanGap is the mean inter-arrival time in CPU cycles (the offered
	// rate is 1/MeanGap requests per cycle), 1..2^48.
	MeanGap uint64
	// Dist is the inter-arrival distribution.
	Dist Dist
	// Seed seeds the gap PRNG; two generators with equal seeds and
	// configs issue identical request streams.
	Seed uint64
	// Words is the request (and reply) payload size in 8-byte words,
	// 1..8; default 8 (one 64-byte line, the CSB batch unit).
	Words int
	// Servers lists the destination node indices, used round-robin.
	Servers []int
	// IssueUntil stops new requests after this cluster cycle (0 = never);
	// the generator keeps draining replies afterwards.
	IssueUntil uint64
	// Warmup delays the first request until this cluster cycle.
	Warmup uint64
	// Timeout is the per-request deadline in cluster cycles (0 disables
	// deadlines, retries and goodput accounting — the historical
	// fire-and-forget behavior). A request unanswered for Timeout cycles
	// is retried (budget permitting) or counted lost.
	Timeout uint64
	// MaxRetries bounds re-sends per request (0 = no retries: the first
	// timeout is terminal). Requires Timeout > 0.
	MaxRetries int
	// BackoffBase is the base retry delay: attempt k waits
	// BackoffBase<<k cycles, capped at 2^22, plus seeded jitter in [0,
	// half that] after its timeout fires. 0 defaults to Timeout/4 (min 1);
	// at most 2^22.
	BackoffBase uint64
}

// Stats is a generator's cumulative request accounting. At any read
// point, Issued == Completed + Lost + outstanding (requests still in
// flight) — the exact-accounting invariant TestWireFaultCampaign asserts.
type Stats struct {
	Issued    uint64 `json:"issued"`
	Completed uint64 `json:"completed"`
	// Lost counts requests given up on: the retry budget was exhausted
	// after a timeout, or the tracking slot was reused before a reply
	// arrived (the open-loop overload signal).
	Lost uint64 `json:"lost"`
	// Stray counts reply packets that matched no outstanding request.
	Stray uint64 `json:"stray"`
	// Timeouts counts deadline expiries (a request retried three times
	// contributes up to four).
	Timeouts uint64 `json:"timeouts"`
	// Retries counts re-sent requests.
	Retries uint64 `json:"retries"`
	// DuplicateReplies counts replies suppressed by the generation check:
	// a stale attempt answering after its retry was sent, a reply for an
	// already-completed or given-up request, or a wire-duplicated packet.
	DuplicateReplies uint64 `json:"duplicate_replies"`
	// Goodput counts completions within Timeout cycles of first issue
	// (== Completed when Timeout is 0) — the SLO-meaningful completions.
	Goodput uint64 `json:"goodput"`
}

type pendingReq struct {
	id       uint64
	issued   uint64 // first-issue cycle (latency baseline across retries)
	deadline uint64
	srv      int   // index into cfg.Servers of the current attempt's target
	gen      uint8 // current attempt generation, echoed in the reply header
	attempts uint8 // re-sends so far
	live     bool
}

// deadlineEnt is one armed deadline. Deadlines are appended in
// nondecreasing order (send cycles are monotone, Timeout constant), so
// expiry is a head-of-queue scan.
type deadlineEnt struct {
	id       uint64
	deadline uint64
	gen      uint8
}

// retryEnt is one backoff-delayed retry waiting to fire.
type retryEnt struct {
	id  uint64
	at  uint64
	gen uint8
}

// Generator drives one client node. Create with New, wire with Attach,
// then run the cluster; read Stats and the latency histogram afterwards.
type Generator struct {
	cfg  Config
	prng fault.PRNG

	node *cluster.Node
	self int

	slots     int // packet-buffer ring slots
	slotBytes uint64
	nextIssue uint64
	reqID     uint64
	rrIdx     int

	pending []pendingReq
	pendCap uint64 // pending ring size; the default pendingCap, shrinkable in tests
	stats   Stats

	// Reliability state (only populated when cfg.Timeout > 0).
	dlq    []deadlineEnt // armed deadlines, nondecreasing; head at dlHead
	dlHead int
	retryq []retryEnt // backoff-delayed retries, fired in insertion order

	// reply reassembly: replies arrive packet-atomically, Words words each
	rxHave int
	rxHdr  uint64

	hist    *counters.Histogram
	rhist   *counters.Histogram // retried completions' e2e latency
	scratch [8]byte
}

// New builds a generator. Validation happens in Attach, where the
// cluster's shape is known.
func New(cfg Config) *Generator {
	if cfg.MeanGap == 0 {
		cfg.MeanGap = 1000
	}
	if cfg.Words == 0 {
		cfg.Words = 8
	}
	if cfg.Timeout > 0 && cfg.BackoffBase == 0 {
		cfg.BackoffBase = clamp1(cfg.Timeout / 4)
	}
	return &Generator{cfg: cfg, prng: fault.NewPRNG(cfg.Seed), pendCap: pendingCap}
}

// Attach binds the generator to node `self` of c: validates the server
// set against the topology, registers the latency histogram and request
// counters under "loadgen/<node>/" in the cluster registry, and installs
// the hook with its wake function (nextWake). The node's guest should
// simply halt — the hook keeps the node's NIC ticking.
func (g *Generator) Attach(c *cluster.Cluster, self int) error {
	if self < 0 || self >= c.NumNodes() {
		return fmt.Errorf("loadgen: client node %d out of range", self)
	}
	if g.cfg.Words < 1 || g.cfg.Words > 8 {
		return fmt.Errorf("loadgen: %d-word requests unsupported (want 1..8, one NIC line)", g.cfg.Words)
	}
	if g.cfg.MaxRetries < 0 || g.cfg.MaxRetries > 200 {
		return fmt.Errorf("loadgen: MaxRetries %d outside [0, 200]", g.cfg.MaxRetries)
	}
	if g.cfg.MaxRetries > 0 && g.cfg.Timeout == 0 {
		return fmt.Errorf("loadgen: MaxRetries %d without a Timeout", g.cfg.MaxRetries)
	}
	if g.cfg.MeanGap > maxMeanGap {
		return fmt.Errorf("loadgen: MeanGap %d cycles exceeds the maximum %d", g.cfg.MeanGap, uint64(maxMeanGap))
	}
	if g.cfg.BackoffBase > maxBackoff {
		return fmt.Errorf("loadgen: BackoffBase %d cycles exceeds the backoff cap %d", g.cfg.BackoffBase, maxBackoff)
	}
	if len(g.cfg.Servers) == 0 {
		return fmt.Errorf("loadgen: no server nodes")
	}
	for _, s := range g.cfg.Servers {
		if s < 0 || s >= c.NumNodes() || s == self {
			return fmt.Errorf("loadgen: bad server node %d for client %d", s, self)
		}
		if _, ok := c.Link(self, s); !ok {
			return fmt.Errorf("loadgen: no link from client %d to server %d", self, s)
		}
	}
	g.node = c.Node(self)
	g.self = self
	g.slotBytes = uint64(g.cfg.Words * 8)
	g.slots = int(uint64(device.PacketBufSize) / g.slotBytes)
	g.pending = make([]pendingReq, g.pendCap)
	reg := c.AttachCounters()
	prefix := "loadgen/" + g.node.Name() + "/"
	g.hist = reg.Histogram(prefix + "latency")
	g.rhist = reg.Histogram(prefix + "retry_latency")
	reg.Counter(prefix+"issued", func() uint64 { return g.stats.Issued })
	reg.Counter(prefix+"completed", func() uint64 { return g.stats.Completed })
	reg.Counter(prefix+"lost", func() uint64 { return g.stats.Lost })
	reg.Gauge(prefix+"outstanding", func() uint64 { return g.stats.Issued - g.stats.Completed - g.stats.Lost })
	reg.Counter(prefix+"timeouts", func() uint64 { return g.stats.Timeouts })
	reg.Counter(prefix+"retries", func() uint64 { return g.stats.Retries })
	reg.Counter(prefix+"duplicate_replies", func() uint64 { return g.stats.DuplicateReplies })
	reg.Counter(prefix+"goodput", func() uint64 { return g.stats.Goodput })
	g.nextIssue = g.cfg.Warmup + g.gap()
	c.SetNodeHook(self, g.hook)
	c.SetNodeWake(self, g.nextWake)
	return nil
}

// Stats returns the cumulative request accounting. Requests still in
// flight at read time are neither completed nor lost:
// Issued - Completed - Lost = outstanding.
func (g *Generator) Stats() Stats { return g.stats }

// Latency returns the round-trip latency histogram.
func (g *Generator) Latency() *counters.Histogram { return g.hist }

// hook is the driver: drain replies, expire deadlines, fire due retries,
// then issue per schedule — a fixed order so the PRNG draw sequence (and
// with it the whole run) is deterministic. It runs on the node's
// goroutine inside lookahead windows and touches only this node's state
// (its NIC, the generator's own accounting and histograms). The cluster
// calls it at nextWake's cycle and after RX deliveries; a call at any
// other cycle finds nothing due and does nothing.
//
//csb:worker NodeHook on the owning node's goroutine
func (g *Generator) hook(cycle uint64) bool {
	g.drain(cycle)
	if g.cfg.Timeout > 0 {
		g.expire(cycle)
		g.fireRetries(cycle)
	}
	if cycle >= g.nextIssue && (g.cfg.IssueUntil == 0 || cycle <= g.cfg.IssueUntil) {
		g.inject(cycle)
		g.nextIssue = cycle + g.gap()
	}
	return true
}

// nextWake returns the next cycle the hook has work at without an RX
// delivery: the next issue while issuing continues, the head deadline
// and the earliest retry. An early answer is safe; a late one would
// delay that work, so every input of the hook's decisions is covered.
//
//csb:worker NodeHook wake function on the owning node's goroutine
func (g *Generator) nextWake() uint64 {
	w := uint64(math.MaxUint64)
	if g.cfg.IssueUntil == 0 || g.nextIssue <= g.cfg.IssueUntil {
		w = g.nextIssue
	}
	if g.dlHead < len(g.dlq) {
		w = min(w, g.dlq[g.dlHead].deadline)
	}
	for i := range g.retryq {
		w = min(w, g.retryq[i].at)
	}
	return w
}

// inject issues one fresh request. Mirrors what a guest's uncached
// stores would do, without costing simulated cycles — the client models
// an aggregation point for many remote users, not a CPU-bound sender.
func (g *Generator) inject(cycle uint64) {
	id := g.reqID & idMask
	p := &g.pending[id%g.pendCap]
	if p.live {
		// Slot recycled under an unanswered request: the old request is
		// lost, and any late reply for it will be counted stray (its ID no
		// longer matches the slot).
		g.stats.Lost++
	}
	*p = pendingReq{id: id, issued: cycle, srv: g.rrIdx, live: true}
	g.rrIdx = (g.rrIdx + 1) % len(g.cfg.Servers)
	g.send(p, cycle)
	g.stats.Issued++
	g.reqID++
}

// send transmits the current attempt of request p: payload into its
// packet-buffer slot, destination steered via RegTxDest, one descriptor
// push, and (with deadlines on) arms the attempt's deadline.
func (g *Generator) send(p *pendingReq, cycle uint64) {
	slot := uint64(int(p.id)%g.slots) * g.slotBytes
	base := cluster.NICBase + device.PacketBufBase + slot
	hdr := uint64(g.self)<<48 | uint64(p.gen)<<40 | p.id
	g.writeWord(base, hdr)
	for w := 1; w < g.cfg.Words; w++ {
		g.writeWord(base+uint64(w*8), g.prng.Uint64())
	}
	g.writeWord(cluster.NICBase+device.RegTxDest, uint64(g.cfg.Servers[p.srv]))
	g.writeWord(cluster.NICBase+device.RegTxFIFO, slot|g.slotBytes<<48)
	if g.cfg.Timeout > 0 {
		p.deadline = cycle + g.cfg.Timeout
		g.dlq = append(g.dlq, deadlineEnt{id: p.id, deadline: p.deadline, gen: p.gen})
	}
}

// expire fires deadlines due at or before cycle. A timed-out request
// with retry budget left schedules a backoff-delayed retry; one without
// is lost. Entries for completed or superseded attempts are skipped.
func (g *Generator) expire(cycle uint64) {
	for g.dlHead < len(g.dlq) && g.dlq[g.dlHead].deadline <= cycle {
		e := g.dlq[g.dlHead]
		g.dlHead++
		p := &g.pending[e.id%g.pendCap]
		if !p.live || p.id != e.id || p.gen != e.gen {
			continue
		}
		g.stats.Timeouts++
		if int(p.attempts) < g.cfg.MaxRetries {
			g.retryq = append(g.retryq, retryEnt{id: e.id, at: cycle + g.backoff(p.attempts), gen: e.gen})
		} else {
			p.live = false
			g.stats.Lost++
		}
	}
	if g.dlHead > 4096 && 2*g.dlHead >= len(g.dlq) {
		n := copy(g.dlq, g.dlq[g.dlHead:])
		g.dlq = g.dlq[:n]
		g.dlHead = 0
	}
}

// backoff draws attempt k's retry delay: BackoffBase<<k, saturating at
// maxBackoff, plus seeded jitter in [0, half that].
func (g *Generator) backoff(attempt uint8) uint64 {
	b := uint64(maxBackoff)
	if base := g.cfg.BackoffBase; base != 0 && base <= maxBackoff>>attempt {
		b = base << attempt
	}
	return b + uint64(g.prng.Intn(int(b/2)+1))
}

// fireRetries re-sends requests whose backoff elapsed. A reply that
// arrived during the backoff already completed the request (its
// generation was still current), so stale entries are skipped. Each
// retry bumps the generation — orphaning any still-flying older attempt
// — and fails over to the next server when several are configured.
func (g *Generator) fireRetries(cycle uint64) {
	if len(g.retryq) == 0 {
		return
	}
	keep := g.retryq[:0]
	for _, e := range g.retryq {
		if e.at > cycle {
			keep = append(keep, e)
			continue
		}
		p := &g.pending[e.id%g.pendCap]
		if !p.live || p.id != e.id || p.gen != e.gen {
			continue
		}
		p.attempts++
		p.gen++
		if len(g.cfg.Servers) > 1 {
			p.srv = (p.srv + 1) % len(g.cfg.Servers)
		}
		g.stats.Retries++
		g.send(p, cycle)
	}
	g.retryq = keep
}

// drain pops every waiting RX word, reassembling fixed-size replies and
// recording their round-trip latency. The reply header must match the
// live request's ID *and* generation: a reply from a stale attempt (or a
// wire duplicate) is suppressed, never double-completing a request or
// corrupting a recycled slot's latency sample.
func (g *Generator) drain(cycle uint64) {
	for {
		w, ok := g.node.NIC.RxPop()
		if !ok {
			return
		}
		if g.rxHave == 0 {
			g.rxHdr = w
		}
		g.rxHave++
		if g.rxHave < g.cfg.Words {
			continue
		}
		g.rxHave = 0
		if g.rxHdr>>48 != uint64(g.self) {
			g.stats.Stray++
			continue
		}
		id := g.rxHdr & idMask
		gen := uint8(g.rxHdr >> 40)
		p := &g.pending[id%g.pendCap]
		switch {
		case p.live && p.id == id && p.gen == gen:
			p.live = false
			lat := cycle - p.issued
			g.hist.Record(lat)
			g.stats.Completed++
			if g.cfg.Timeout == 0 || lat <= g.cfg.Timeout {
				g.stats.Goodput++
			}
			if p.attempts > 0 {
				g.rhist.Record(lat)
			}
		case p.id == id:
			// Same request, wrong generation or already settled: a late
			// original overtaken by its retry, a duplicate delivery, or a
			// reply to a request we gave up on.
			g.stats.DuplicateReplies++
		default:
			g.stats.Stray++
		}
	}
}

// writeWord stores one little-endian word at physical address pa on the
// node's NIC, through the device's normal write path.
func (g *Generator) writeWord(pa, v uint64) {
	for i := range g.scratch {
		g.scratch[i] = byte(v >> (8 * i))
	}
	g.node.NIC.WriteTarget(pa, g.scratch[:])
}

// gap draws the next inter-arrival time (≥ 1 cycle).
func (g *Generator) gap() uint64 {
	mean := g.cfg.MeanGap
	switch g.cfg.Dist {
	case DistBursty:
		// Within a burst: back-to-back. Between bursts: an off-period
		// drawn so the overall mean stays MeanGap. gap() runs after
		// reqID++, so reqID%burstLen == 0 means a burst just finished.
		if g.reqID%burstLen != 0 {
			return 1
		}
		off := mean*burstLen - (burstLen - 1)
		if off < 2 {
			return 1
		}
		return clamp1(off/2 + uint64(g.prng.Intn(int(off))))
	case DistHeavyTail:
		// Pareto(α=1.5) with xm = mean/3 so E[gap] = mean; capped at
		// 100·mean to keep a single draw from stalling the run.
		u := float64(g.prng.Uint64()>>11) / (1 << 53) // [0,1)
		xm := float64(mean) / 3
		v := xm / math.Pow(1-u, 1/1.5)
		if lim := float64(mean) * 100; v > lim {
			v = lim
		}
		return clamp1(uint64(v))
	default: // uniform
		return clamp1(mean/2 + uint64(g.prng.Intn(int(mean))))
	}
}

func clamp1(v uint64) uint64 {
	if v < 1 {
		return 1
	}
	return v
}
