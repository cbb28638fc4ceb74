// The cluster's one engine: windowed conservative lookahead, the classic
// conservative parallel-discrete-event scheme (gem5's multi-system KVM
// sync and CMB null messages are the references). The minimum link
// latency W is the lookahead: a packet pumped at cycle t cannot arrive
// anywhere before t+W, so every node can tick a whole window of W cycles
// without observing an inbound packet the coordinator hasn't already
// delivered to its inbox. A zero-latency link makes W one cycle, and the
// barrier itself delivers what arrives in the cycle it was pumped.
// Between windows a single-threaded barrier routes the window's
// departures, replays the deferred tracer logs in node order, and
// publishes telemetry.
//
// Determinism: a node's window run touches only node-local state (its
// machine, its NIC, its inbox positions, its event log and outbox), and
// every shared-state mutation — routing, tracer stamps, counters reads —
// happens at the barrier in a fixed order: departures are routed in
// (pump cycle, node index, push order), trace logs replayed in node
// order. With parallel off the same window/barrier schedule runs inline,
// so a parallel run is byte-identical to the inline one by construction,
// not by luck.
package cluster

import (
	"fmt"
	"math"
)

// soloLookahead is the window used when the cluster has no links at all
// (a single node): there is nothing to synchronize with, so the window is
// just a large batching factor.
const soloLookahead = 4096

// lookahead computes the window W = max(1, min link latency).
func (c *Cluster) lookahead() uint64 {
	w := uint64(math.MaxUint64)
	for i := range c.links {
		for j := range c.links[i] {
			if l := c.links[i][j]; l != nil {
				w = min(w, l.Latency)
			}
		}
	}
	if w == math.MaxUint64 {
		return soloLookahead
	}
	return max(w, 1)
}

// runWindow advances this node through the window (start, end]: per cycle
// it runs the node hook, ticks the machine (unless frozen), pumps freshly
// transmitted packets into the outbox and applies due inbound flights.
// Everything touched is node-local, so windows of different nodes run
// concurrently. A frozen, hook-less node skips the cycle loop and just
// catches its inbox up — stamps use the flights' own due cycles, so the
// fast-forward is exact.
//
//csb:hotpath
//csb:worker runs a whole lookahead window on the node's own goroutine
func (n *Node) runWindow(start, end uint64) {
	if n.frozen && !n.hookActive() {
		n.applyDue(end)
		return
	}
	for cyc := start + 1; cyc <= end; cyc++ {
		if n.hookActive() {
			if !n.hook(cyc) {
				n.hookDone = true
			}
		}
		if !n.frozen {
			n.M.Tick()
			if err := n.M.CPU.Err(); err != nil {
				n.err = err
				n.frozen = true
			} else if n.M.CPU.Halted() {
				if n.haltAt == 0 {
					n.haltAt = cyc
				}
				if !n.hookActive() && n.M.Settled() {
					// Halted with every engine quiet and no live hook:
					// further ticks are no-ops, stop paying for them.
					n.frozen = true
				}
			}
		}
		n.pump(cyc)
		n.applyDue(cyc)
	}
}

// nodeWorkers is the persistent goroutine-per-node pool: each worker owns
// one node for the duration of a run and executes its windows. The
// start/done channel pairs give the barrier its happens-before edges: the
// coordinator's sends publish the routed inboxes to the workers, the
// workers' completions publish window state back to the coordinator.
type nodeWorkers struct {
	start []chan [2]uint64
	done  chan int
}

func (c *Cluster) startWorkers() *nodeWorkers {
	w := &nodeWorkers{
		start: make([]chan [2]uint64, len(c.nodes)),
		done:  make(chan int, len(c.nodes)),
	}
	for i, n := range c.nodes {
		ch := make(chan [2]uint64, 1)
		w.start[i] = ch
		//csb:worker the per-node goroutine body: one window per start-channel message
		go func(n *Node, ch chan [2]uint64, idx int) {
			for win := range ch {
				n.runWindow(win[0], win[1])
				w.done <- idx
			}
		}(n, ch, i)
	}
	return w
}

// run executes one window on every node concurrently and waits for all.
func (w *nodeWorkers) run(start, end uint64) {
	for _, ch := range w.start {
		ch <- [2]uint64{start, end}
	}
	for range w.start {
		<-w.done
	}
}

// stop retires the worker goroutines.
func (w *nodeWorkers) stop() {
	for _, ch := range w.start {
		close(ch)
	}
}

// runWindowed is the coordinator loop behind Run and RunFor.
func (c *Cluster) runWindowed(limit uint64, parallel, limitIsErr bool) error {
	w := c.lookahead()
	var workers *nodeWorkers
	if parallel {
		workers = c.startWorkers()
		defer workers.stop()
	}
	c.startObs()
	horizon := c.cycle + limit
	for c.cycle < horizon {
		end := c.cycle + w
		if end > horizon {
			end = horizon
		}
		if workers != nil {
			workers.run(c.cycle, end)
		} else {
			for _, n := range c.nodes {
				n.runWindow(c.cycle, end)
			}
		}
		c.cycle = end
		// Barrier: all node goroutines are parked; shared state is ours.
		// A flight routed here is due at end+1 or later unless its link
		// has zero latency; applyDue delivers exactly those in this cycle.
		c.drainTraceLogs()
		c.routeAll()
		for _, n := range c.nodes {
			n.applyDue(end)
		}
		c.drainTraceLogs()
		c.compactInboxes()
		c.maybeRoll()
		c.maybePublish()
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

// Run advances the cluster until every live node halts and the fabric
// drains, or maxCycles elapse (an error). parallel runs each node's
// windows on its own goroutine; the result (machine state, trace dumps,
// counter values) is byte-identical either way. HaltCycle reports the
// cycle the last node halted, independent of the window size. Every exit
// path — success, fault, watchdog, limit — flushes observability state
// first, so post-mortems of a wedged or faulted node see everything up to
// the abort and recordings always carry their final window and footer.
func (c *Cluster) Run(maxCycles uint64, parallel bool) error {
	return c.runWindowed(maxCycles, parallel, true)
}

// RunFor advances the cluster for a fixed horizon: reaching it is
// success, not an error — the shape serving experiments want, where
// server nodes never halt. Node faults still abort with an error.
// Observability state is flushed (and a final telemetry frame published)
// on every path.
func (c *Cluster) RunFor(cycles uint64, parallel bool) error {
	return c.runWindowed(cycles, parallel, false)
}

// HaltCycle returns the cluster cycle after whose tick the last live node
// halted — where a cycle-by-cycle run would stop — or 0 while a live node
// is still running. Cycle, by contrast, is the barrier clock: it ends on
// a window edge at or after the fabric drains.
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
