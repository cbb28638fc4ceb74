package main

import "time"

// sampleEvery is the mirror loop's timing stride. It is prime and shares
// no factor with the bus ratio, so the timed cycles rotate through every
// bus phase.
const sampleEvery = 17

// Mirror-loop layers, in the order their calls are timed.
const (
	lUncbuf = iota
	lCPU
	lCache
	lBus
	lCore
	numLayers
)

var layerNames = [numLayers]string{"uncbuf", "cpu", "cache", "bus", "core"}

// traceAcc accumulates one workload's traced host time.
type traceAcc struct {
	// Mirror tick (store streams): per-layer span time and span count on
	// the timed cycles, and the whole traced loop.
	layerNs    [numLayers]time.Duration
	layerSpans [numLayers]uint64
	emptyNs    time.Duration // one empty span per timed cycle
	sampled    uint64        // timed cycles
	cycles     uint64        // all mirrored cycles
	nowCalls   uint64
	loop       time.Duration

	// Window hook (cluster workloads), summed over windows.
	winWork    time.Duration // worker phase of the critical node
	winBarrier time.Duration // barrier plus handoff
	winWait    time.Duration // waiting for the slowest node, per hooked node
	winPeriod  time.Duration // whole window period, per hooked node
	winCycles  uint64
}

// mirror advances the machine n cycles through the same public calls, in
// the same order and behind the same idle gates, as sim.Machine.Tick, and
// times each layer's calls on every sampleEvery-th cycle. The store
// stream attaches no devices and no observability hooks, so these calls
// are all of Tick's work; a Tick that changes its order breaks the
// fingerprint check of the traced run, never the untraced one.
func (s *storeInst) mirror(n uint64) {
	m, a := s.m, s.acc
	ub, c, h, b, csb := m.UB, m.CPU, m.Hier, m.Bus, m.CSB
	ratio := m.Cfg.Ratio
	start := time.Now()
	for range n {
		s.sampleIn--
		if s.sampleIn > 0 {
			ub.TickCPU()
			c.Tick()
			h.TickCPU()
			s.busIn--
			if s.busIn == 0 {
				s.busIn = ratio
				b.Tick()
				if !csb.Drained() {
					csb.TickBus(b)
				}
				if ub.HasWork() {
					ub.TickBus(b)
				}
				if h.NeedsBus() {
					h.TickBus(b)
				}
			}
			continue
		}
		s.sampleIn = sampleEvery
		te := time.Now()
		t0 := time.Now()
		ub.TickCPU()
		t1 := time.Now()
		c.Tick()
		t2 := time.Now()
		h.TickCPU()
		t3 := time.Now()
		a.emptyNs += t0.Sub(te)
		a.layerNs[lUncbuf] += t1.Sub(t0)
		a.layerNs[lCPU] += t2.Sub(t1)
		a.layerNs[lCache] += t3.Sub(t2)
		a.layerSpans[lUncbuf]++
		a.layerSpans[lCPU]++
		a.layerSpans[lCache]++
		a.nowCalls += 5
		a.sampled++
		s.busIn--
		if s.busIn != 0 {
			continue
		}
		s.busIn = ratio
		b.Tick()
		t4 := time.Now()
		if !csb.Drained() {
			csb.TickBus(b)
		}
		t5 := time.Now()
		if ub.HasWork() {
			ub.TickBus(b)
		}
		t6 := time.Now()
		if h.NeedsBus() {
			h.TickBus(b)
		}
		t7 := time.Now()
		a.layerNs[lBus] += t4.Sub(t3)
		a.layerNs[lCore] += t5.Sub(t4)
		a.layerNs[lUncbuf] += t6.Sub(t5)
		a.layerNs[lCache] += t7.Sub(t6)
		a.layerSpans[lBus]++
		a.layerSpans[lCore]++
		a.layerSpans[lUncbuf]++
		a.layerSpans[lCache]++
		a.nowCalls += 4
	}
	a.loop += time.Since(start)
	a.cycles += n
}

// mirrorMetrics turns the mirror accumulators into per-layer self time
// per simulated cycle and the share of the traced loop's host time those
// self times and the clock reads account for. Every span carries the cost
// of one time.Now, about 100 ns on the calibration host and several times
// the work of the smaller layers; the empty span timed on every timed
// cycle measures that cost in place, at the host's speed of the moment.
func (a *traceAcc) mirrorMetrics(out map[string]float64) {
	if a.sampled == 0 {
		return
	}
	timer := float64(a.emptyNs) / float64(a.sampled)
	var perCycle float64
	for l, name := range layerNames {
		self := float64(a.layerNs[l]) - float64(a.layerSpans[l])*timer
		ns := max(self, 0) / float64(a.sampled)
		out[name+".host_ns_per_cycle"] = ns
		perCycle += ns
	}
	accounted := perCycle*float64(a.cycles) + float64(a.nowCalls)*timer
	out["sim.trace_accounted_pct"] = 100 * accounted / float64(a.loop)
}

// windowStamps records, on one node's own goroutine, the host time of
// the first and the last cycle of every lookahead window. The node hook
// runs before the node's tick of that cycle.
type windowStamps struct {
	w           uint64
	base        time.Time
	first, last []time.Duration
}

func newWindowStamps(w, segCycles uint64) *windowStamps {
	n := int(segCycles / w)
	return &windowStamps{w: w, base: time.Now(), first: make([]time.Duration, 0, n), last: make([]time.Duration, 0, n)}
}

func (s *windowStamps) reset() {
	s.first = s.first[:0]
	s.last = s.last[:0]
}

// hook is the cluster.NodeHook. It runs on the node's goroutine inside a
// window and touches only s.
func (s *windowStamps) hook(cycle uint64) bool {
	switch (cycle - 1) % s.w {
	case 0:
		s.first = append(s.first, time.Since(s.base))
	case s.w - 1:
		s.last = append(s.last, time.Since(s.base))
	}
	return true
}

// addWindows splits one segment's windows. Per hooked node and window,
// the worker phase is the first-to-last span scaled from w-1 ticked
// cycles to w, and the rest of the period up to the next window's first
// cycle is barrier, handoff and waiting. The barrier is the 10th
// percentile of that rest over the segment, taken on the node where it is
// smallest; what a node spends above its own 10th percentile is waiting
// for a slower node.
func (a *traceAcc) addWindows(stamps []*windowStamps, w uint64) {
	if len(stamps) == 0 || len(stamps[0].first) < 2 {
		return
	}
	var crit time.Duration
	barrier := time.Duration(-1)
	nw := len(stamps[0].first) - 1
	for _, s := range stamps {
		var work, period time.Duration
		rest := make([]float64, nw)
		for i := range nw {
			wk := (s.last[i] - s.first[i]) * time.Duration(w) / time.Duration(w-1)
			p := s.first[i+1] - s.first[i]
			work += wk
			period += p
			rest[i] = float64(p - wk)
		}
		floor := quantile(sorted(rest), 0.10)
		for _, r := range rest {
			a.winWait += time.Duration(max(r-floor, 0) / float64(len(stamps)))
		}
		a.winPeriod += period / time.Duration(len(stamps))
		crit = max(crit, work)
		if b := time.Duration(floor); barrier < 0 || b < barrier {
			barrier = b
		}
	}
	a.winWork += crit
	a.winBarrier += barrier * time.Duration(nw)
	a.winCycles += uint64(nw) * w
}

func (a *traceAcc) windowMetrics(out map[string]float64) {
	if a.winCycles == 0 {
		return
	}
	out["cluster.window_ns_per_cycle"] = float64(a.winWork) / float64(a.winCycles)
	out["cluster.barrier_ns_per_cycle"] = float64(a.winBarrier) / float64(a.winCycles)
	out["cluster.barrier_share"] = float64(a.winBarrier) / float64(a.winPeriod)
	out["cluster.wait_share"] = float64(a.winWait) / float64(a.winPeriod)
}
