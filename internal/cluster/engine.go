// The cluster's one engine: windowed conservative lookahead, the classic
// conservative parallel-discrete-event scheme (gem5's multi-system KVM
// sync and CMB null messages are the references). The minimum link
// latency W is the lookahead: a packet pumped at cycle t cannot arrive
// anywhere before t+W, so every node can tick a whole window of W cycles
// without observing an inbound packet the coordinator hasn't already
// delivered to its inbox. Like a CMB null message, the lookahead also
// draws on the senders' state: a packet leaves a NIC only on a bus tick,
// one bus tick after its transmission starts, so no node can pump before
// its transmit lead (the next bus tick while its NIC is sending, one bus
// period later otherwise). When W would be one cycle (a link latency of
// 0 or 1) a window instead runs to the earliest transmit lead plus the
// latency, and the barrier delivers what arrives in the window's last
// cycle. Three exceptions: a node with a live hook, which may act on its
// NIC in any cycle, and an armed watchdog, whose progress marks are taken
// at every barrier, keep one-cycle windows; latencies of 2 and more keep
// the fixed W grid, which recorder rolls and watchdog marks are observed
// on. An attached recorder clips a lead window at its next roll.
// Between windows a single-threaded barrier routes the window's
// departures, replays the deferred tracer logs in node order, and rolls
// the flight recorder's window when one is due.
//
// Inside a window a node does not step every cycle: after each step it
// jumps to the cycle before its next event (its machine's quiet-stretch
// end, the window end, its next inbound flight, its hook's next wake),
// charging the jumped cycles in one sim.Machine.CoastFor call — gem5's
// event queue, where a CPU schedules its next event instead of ticking
// through idle cycles. A halted load-generator client thus steps only
// around its own sends and replies instead of every cycle.
//
// Host threads: a window is a few microseconds of work per node, less
// than one futex wake-up, so the hand-off must stay out of the
// scheduler. The parallel engine runs min(GOMAXPROCS, nodes) − 1
// persistent workers beside the coordinator goroutine; each window all of
// them claim nodes off one atomic index. The barrier's happens-before
// edges are two atomics: the coordinator opens a window by bumping the
// epoch (publishing the window bounds and the routed inboxes), and each
// worker leaves it by decrementing the pending count (publishing its
// nodes' window state). Both sides spin on these for a bounded number of
// polls and only then park on a per-worker channel, whose wake token is
// the third edge. With one host thread no worker exists and the windows
// run inline.
//
// Schedule: a pool can save at most the work outside a window's heaviest
// node, so a window whose work one node holds runs inline on the
// coordinator and leaves the workers parked. The choice is made from
// simulator work, never from a wall clock: each node's full ticks per
// window, smoothed over windows (windowSched). Both engines compute the
// same choices, and a choice changes only which host thread runs a node.
//
// Determinism: a node's window run touches only node-local state (its
// machine, its NIC, its inbox positions, its event log and outbox), and
// every shared-state mutation — routing, tracer stamps, counters reads —
// happens at the barrier in a fixed order: departures are routed in
// (pump cycle, node index, push order), trace logs replayed in node
// order. Which thread runs a node's window changes nothing it computes.
// With parallel off the same window/barrier schedule runs inline, so a
// parallel run is byte-identical to the inline one by construction, not
// by luck.
package cluster

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// soloLookahead is the window used when the cluster has no links at all
// (a single node): there is nothing to synchronize with, so the window is
// just a large batching factor.
const soloLookahead = 4096

// minLatency returns the minimum link latency, or math.MaxUint64 when the
// cluster has no links.
func (c *Cluster) minLatency() uint64 {
	w := uint64(math.MaxUint64)
	for i := range c.links {
		for j := range c.links[i] {
			if l := c.links[i][j]; l != nil {
				w = min(w, l.Latency)
			}
		}
	}
	return w
}

// lookahead computes the link window W = max(1, min link latency), the
// fixed window length at latencies of 2 and more.
func (c *Cluster) lookahead() uint64 {
	w := c.minLatency()
	if w == math.MaxUint64 {
		return soloLookahead
	}
	return max(w, 1)
}

// transmitLead returns the earliest cycle at which node n, whose hook is
// not live, can pump a packet, reckoned from the barrier at cycle now, or
// math.MaxUint64 when it is frozen. A NIC finishes a transmission only on
// a bus tick, and an idle transmitter needs one bus tick to start a
// descriptor — whether it arrives by a bus write or at the end of a DMA —
// and a later one to finish it: so the lead is the machine's next bus
// tick while the NIC is sending and one bus period later otherwise.
//
//csb:barrier reads the node's machine and NIC between windows
func (n *Node) transmitLead(now uint64) uint64 {
	if n.frozen {
		return math.MaxUint64
	}
	lead := now + n.M.NextBusTick() - n.M.Cycle()
	if !n.NIC.Sending() {
		lead += uint64(n.M.Cfg.Ratio)
	}
	return lead
}

// leadEnd returns the end of the next window when the link window is one
// cycle (minimum latency lat of 0 or 1): the earliest transmit lead of any
// node plus lat. A packet pumped inside the window is then due no earlier
// than the window end, where the barrier delivers it, so no node misses a
// delivery; the nodes' machines tick exactly as in one-cycle windows. A
// node with a live hook keeps the window at one cycle, and an attached
// recorder clips it at its next roll, so rolls land on the same cycles.
//
//csb:barrier reads every node's machine and NIC between windows
func (c *Cluster) leadEnd(lat uint64) uint64 {
	end := uint64(math.MaxUint64)
	for _, n := range c.nodes {
		if n.hookActive() {
			return c.cycle + 1
		}
		if lead := n.transmitLead(c.cycle); lead != math.MaxUint64 {
			end = min(end, lead+lat)
		}
	}
	if end == math.MaxUint64 {
		return c.cycle + 1 // every node frozen: a one-cycle window, as before
	}
	if c.rec != nil {
		end = min(end, c.lastRoll+c.recEvery)
	}
	return end
}

// runWindow advances this node through the window (start, end] one step
// at a time. A step runs the node hook when it is due, ticks the machine
// (unless frozen), pumps freshly transmitted packets into the outbox and
// applies due inbound flights; then the node jumps with
// sim.Machine.CoastFor through the cycles before its next event: the end
// of the machine's quiet stretch, the window end, the next inbound due or
// enqueue cycle, and the hook's next wake (jumpTo). No packet can leave a
// coasting machine and no flight falls due inside the jump, so pump and
// applyDue have nothing to do there. Everything touched is node-local, so
// windows of different nodes run concurrently. A frozen, hook-less node
// skips the cycle loop and just catches its inbox up — stamps use the
// flights' own due cycles, so the fast-forward is exact.
//
//csb:hotpath
//csb:worker runs a whole lookahead window of one node on a pool thread
func (n *Node) runWindow(start, end uint64) {
	if n.frozen && !n.hookActive() {
		n.applyDue(end)
		return
	}
	for cyc := start + 1; cyc <= end; cyc++ {
		if n.hookActive() && (n.wake == nil || n.rxWoke || cyc >= n.wakeAt) {
			n.rxWoke = false
			if !n.hook(cyc) {
				n.hookDone, n.quietAt = true, cyc
			} else if n.wake != nil {
				n.wakeAt = n.wake()
			}
		}
		if !n.frozen {
			n.M.Tick()
			if err := n.M.CPU.Err(); err != nil {
				n.err = err
				n.frozen, n.quietAt = true, cyc
			} else if n.M.CPU.Halted() {
				if n.haltAt == 0 {
					n.haltAt = cyc
				}
				if !n.hookActive() && n.M.Settled() {
					// Halted with every engine quiet and no live hook:
					// further ticks are no-ops, stop paying for them.
					n.frozen, n.quietAt = true, cyc
				}
			}
		}
		n.pump(cyc)
		n.applyDue(cyc)
		if to := n.jumpTo(cyc, end); to > cyc {
			if n.frozen {
				cyc = to
			} else {
				cyc += n.M.CoastFor(to - cyc)
			}
		}
	}
}

// jumpTo returns the last cycle through which the node may advance from
// cyc without running a step: the cycle before its next inbound due or
// enqueue, before its hook's next wake (cyc itself when the hook runs
// every cycle or an RX delivery woke it), and at most end. The machine's
// own quiet stretch bounds the jump further (CoastFor).
//
//csb:hotpath
func (n *Node) jumpTo(cyc, end uint64) uint64 {
	to := end
	if n.hookActive() {
		if n.wake == nil || n.rxWoke || n.wakeAt <= cyc+1 {
			return cyc
		}
		to = min(to, n.wakeAt-1)
	}
	if n.arrPos < len(n.inbox) {
		to = min(to, n.inbox[n.arrPos].due-1)
	}
	if n.enqPos < n.arrPos {
		to = min(to, n.inbox[n.enqPos].dueEnq-1)
	}
	return to
}

// spinBudget is how many times a participant polls the barrier's atomics
// before it parks on its channel. A window of work is a few microseconds,
// so a peer usually arrives within the spin and the hand-off never enters
// the scheduler; the budget (tens of microseconds of polling) only bounds
// what a long barrier or a descheduled peer costs in burnt CPU.
var spinBudget = 1 << 15

// parker is one participant's park slot: after its spin runs out it sets
// parked and blocks on wake; whoever makes its condition true and wins
// the parked flag sends the one wake token. Every parked.Store(true) is
// matched by exactly one successful CAS back to false — the sleeper's own
// (it saw the condition after all, no token) or the waker's (one token,
// always received) — so no token is ever left behind. A waker can be
// late: the last worker of one window may unpark the coordinator only
// after it parked for the next. So a woken participant re-checks its
// condition and parks again if it does not hold yet.
type parker struct {
	parked atomic.Bool
	wake   chan struct{}
}

// await returns once ready reports true: spinning first, parking after.
// The spin polls the atomics only; entering the scheduler (Gosched) per
// poll costs more than the hand-off it is meant to speed up.
func (p *parker) await(ready func() bool) {
	for range spinBudget {
		if ready() {
			return
		}
	}
	for !ready() {
		p.parked.Store(true)
		if ready() && p.parked.CompareAndSwap(true, false) {
			return
		}
		<-p.wake
	}
}

// unpark wakes the participant if it parked; the caller has already made
// its condition true.
func (p *parker) unpark() {
	if p.parked.CompareAndSwap(true, false) {
		p.wake <- struct{}{}
	}
}

// windowPool runs each window's node windows on min(GOMAXPROCS, nodes)
// host threads: the coordinator plus persistent workers, all claiming
// nodes off one atomic index, so the load balances without a partition.
// The barrier's happens-before edges are the atomics: the coordinator
// publishes the window bounds and the routed inboxes by bumping epoch,
// which workers observe before they claim; every worker publishes its
// nodes' window state by decrementing pending, which the coordinator
// observes reaching zero before it touches shared state. A park and its
// wake token add the channel's edge on the slow path.
type windowPool struct {
	nodes      []*Node
	start, end uint64 // the current window, written before epoch is bumped
	quit       bool   // set before the final epoch bump
	epoch      atomic.Uint64
	next       atomic.Int64 // the next node index to claim
	pending    atomic.Int64 // workers still inside the current window
	coord      parker
	workers    []*parker
	exited     sync.WaitGroup
}

// startPool starts the worker goroutines, or returns nil when only one
// host thread may run Go code and the windows are best run inline.
func startPool(nodes []*Node) *windowPool {
	nw := min(runtime.GOMAXPROCS(0), len(nodes)) - 1
	if nw < 1 {
		return nil
	}
	p := &windowPool{nodes: nodes, coord: parker{wake: make(chan struct{}, 1)}}
	p.exited.Add(nw)
	for range nw {
		w := &parker{wake: make(chan struct{}, 1)}
		p.workers = append(p.workers, w)
		go p.work(w)
	}
	return p
}

// work is a worker goroutine's body: wait for the next epoch, claim and
// run node windows until none are left, report done.
//
//csb:worker the pool worker body: runs claimed node windows between barriers
func (p *windowPool) work(w *parker) {
	defer p.exited.Done()
	var seen uint64
	for {
		w.await(func() bool { return p.epoch.Load() != seen })
		seen = p.epoch.Load()
		if p.quit {
			return
		}
		claimWindows(p.nodes, &p.next, p.start, p.end)
		if p.pending.Add(-1) == 0 {
			p.coord.unpark()
		}
	}
}

// claimWindows runs node windows off the shared claim index until every
// node of the window is taken. Workers and the coordinator both run it;
// it sees only the node slice, never the cluster.
//
//csb:worker runs claimed node windows on the calling host thread
func claimWindows(nodes []*Node, next *atomic.Int64, start, end uint64) {
	for {
		i := next.Add(1) - 1
		if i >= int64(len(nodes)) {
			return
		}
		nodes[i].runWindow(start, end)
	}
}

// run executes one window on every node — the coordinator takes its share
// — and returns once every worker has left the window.
func (p *windowPool) run(start, end uint64) {
	p.start, p.end = start, end
	p.next.Store(0)
	p.pending.Store(int64(len(p.workers)))
	p.bump()
	claimWindows(p.nodes, &p.next, start, end)
	p.coord.await(func() bool { return p.pending.Load() == 0 })
}

// bump opens the next epoch and wakes the workers that parked.
func (p *windowPool) bump() {
	p.epoch.Add(1)
	for _, w := range p.workers {
		w.unpark()
	}
}

// stop retires the workers and waits until every one has exited.
func (p *windowPool) stop() {
	p.quit = true
	p.bump()
	p.exited.Wait()
}

// A window's schedule follows each node's cost: its full ticks per
// window (sim.Effort.FullTicks, the ticks that ran every stage), each
// window folded in with weight 1/2^costShift. A window runs inline when
// the heaviest node holds at least inlineNum/inlineDen of the summed
// cost: the pool could then save at most the remaining quarter, less
// than its hand-off costs. Smoothing keeps a load near the threshold
// from flipping the schedule every window, each flip to the pool waking
// a parked worker through its channel.
const (
	costShift = 4
	inlineNum = 3
	inlineDen = 4
)

// windowSched is the cluster's window scheduler: per-node costs that
// persist across runs, and the run's count of windows by schedule.
type windowSched struct {
	// cost is each node's smoothed full ticks per window, scaled by
	// 2^(2*costShift) so the fold keeps its fraction in integers.
	cost []uint64
	// seen is each node's full-tick count at the last barrier.
	seen []uint64
	// inline and pooled count this run's windows by the schedule chosen;
	// a run without a pool runs its pooled windows inline too.
	inline, pooled int
}

// begin starts a run: it reads every node's full ticks afresh, so work
// done outside the engine's windows is not charged, and zeroes the run's
// counts.
//
//csb:barrier reads every node's machine; no node window is running
func (s *windowSched) begin(nodes []*Node) {
	for i, n := range nodes {
		s.seen[i] = n.M.Effort().FullTicks
	}
	s.inline, s.pooled = 0, 0
}

// note folds the window just run into every node's cost.
//
//csb:barrier reads every node's machine; no node window is running
func (s *windowSched) note(nodes []*Node) {
	for i, n := range nodes {
		t := n.M.Effort().FullTicks
		s.cost[i] += (t-s.seen[i])<<costShift - s.cost[i]>>costShift
		s.seen[i] = t
	}
}

// pool decides the next window: true to run it on the pool, false to run
// it inline. A cluster with no cost yet runs inline.
//
//csb:barrier decides the schedule before the window opens
func (s *windowSched) pool() bool {
	var sum, top uint64
	for _, c := range s.cost {
		sum += c
		top = max(top, c)
	}
	if inlineDen*top >= inlineNum*sum {
		s.inline++
		return false
	}
	s.pooled++
	return true
}

// runWindowed is the coordinator loop behind Run and RunFor. At a minimum
// link latency of 2 or more every window is W = lookahead() cycles long,
// on a grid the recorder's rolls and the watchdog's marks are observed
// on. At 0 or 1, where W is one cycle, a window instead runs to the
// nodes' transmit lead (leadEnd), unless the watchdog is armed: its
// progress marks are taken at every barrier, so it keeps one-cycle
// windows.
func (c *Cluster) runWindowed(limit uint64, parallel, limitIsErr bool) error {
	w := c.lookahead()
	lat := c.minLatency()
	byLead := lat <= 1 && c.wdWindow == 0
	var pool *windowPool
	if parallel {
		if pool = startPool(c.nodes); pool != nil {
			defer pool.stop()
		}
	}
	c.startObs()
	c.sched.begin(c.nodes)
	horizon := c.cycle + limit
	for c.cycle < horizon {
		start := c.cycle
		end := start + w
		if byLead {
			end = c.leadEnd(lat)
		}
		end = min(end, horizon)
		// Decided with or without a pool, so both engines choose alike.
		if c.sched.pool() && pool != nil {
			pool.run(start, end)
		} else {
			for _, n := range c.nodes {
				n.runWindow(start, end)
			}
		}
		c.cycle = end
		// Barrier: every worker has left the window; shared state is ours.
		// A flight routed here is due at end+1 or later unless its link
		// has zero latency; applyDue delivers exactly those in this cycle.
		c.sched.note(c.nodes)
		c.drainTraceLogs()
		c.routeAll()
		for _, n := range c.nodes {
			n.applyDue(end)
		}
		c.drainTraceLogs()
		c.compactInboxes()
		if byLead && c.settled() {
			// Nothing changed after the cluster settled: stop where
			// one-cycle windows stop, so the recorder's last roll and
			// flush and Cycle come out alike. A one-cycle window always
			// moves the clock, also when the cluster was settled before
			// it started.
			c.cycle = max(c.settledAt(), start+1)
		}
		c.maybeRoll()
		for _, n := range c.nodes {
			if n.err != nil {
				c.flushObs()
				return fmt.Errorf("cluster: node %s: %w", n.name, n.err)
			}
		}
		if err := c.checkWatchdog(); err != nil {
			return err // checkWatchdog flushed observability state
		}
		if c.settled() {
			c.flushObs()
			return nil
		}
	}
	if limitIsErr {
		c.flushObs()
		return fmt.Errorf("cluster: cycle limit %d reached (%s)", limit, c.haltSummary())
	}
	c.flushObs()
	return nil
}

// settled reports whether the whole cluster has gone quiet: every node is
// frozen (halted and drained, hooks retired) and every inbound flight has
// been delivered.
func (c *Cluster) settled() bool {
	for _, n := range c.nodes {
		if !n.frozen || n.hookActive() || n.enqPos != len(n.inbox) {
			return false
		}
	}
	return true
}

// settledAt returns the cycle a settled cluster went quiet: the last
// node freeze, hook retirement or RX enqueue.
func (c *Cluster) settledAt() uint64 {
	var at uint64
	for _, n := range c.nodes {
		at = max(at, n.quietAt, n.lastEnq)
	}
	return at
}

// Run advances the cluster until every live node halts and the fabric
// drains, or maxCycles elapse (an error). parallel spreads each window's
// nodes over up to GOMAXPROCS host threads; the result (machine state,
// trace dumps, counter values) is byte-identical either way. HaltCycle
// reports the cycle the last node halted, independent of the window size.
// Every exit path — success, fault, watchdog, limit — flushes
// observability state first, so post-mortems of a wedged or faulted node
// see everything up to the abort and recordings always carry their final
// window and footer.
func (c *Cluster) Run(maxCycles uint64, parallel bool) error {
	return c.runWindowed(maxCycles, parallel, true)
}

// RunFor advances the cluster for a fixed horizon: reaching it is
// success, not an error — the shape serving experiments want, where
// server nodes never halt. Node faults still abort with an error.
// Observability state is flushed (and the recording closed with its final
// window and footer) on every path.
func (c *Cluster) RunFor(cycles uint64, parallel bool) error {
	return c.runWindowed(cycles, parallel, false)
}

// HaltCycle returns the cluster cycle after whose tick the last live node
// halted — where a cycle-by-cycle run would stop — or 0 while a live node
// is still running. Cycle, by contrast, is the barrier clock: after a Run
// at a link latency of 2 or more it ends on a window edge at or after the
// fabric drains; at 0 or 1, where windows end at the transmit lead, it
// ends where one-cycle windows end, in the cycle the cluster went quiet.
func (c *Cluster) HaltCycle() uint64 {
	var last uint64
	for _, n := range c.nodes {
		if n.down {
			continue
		}
		if n.haltAt == 0 {
			return 0
		}
		last = max(last, n.haltAt)
	}
	return last
}
