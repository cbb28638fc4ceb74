// Package fix seeds phase-discipline violations: worker-colored code
// reaching barrier-only APIs and cross-node shared state (the classic
// bug being a worker-phase write into another node's inbox), plus the
// sanctioned forms — //csb:worker-ok touches and barrier-annotated
// closures created (but not called) inside a window.
package fix

import (
	"csbsim/internal/cluster"
	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/journey"
	"csbsim/internal/sim"
)

// node models per-node state; declaring shared-typed fields is fine —
// only worker-phase uses are checked.
type node struct {
	tr  *journey.WireTracer
	mt  *journey.Tracer
	cnt uint64
}

// routeAll stands in for the engine's routing step.
//
//csb:barrier mutates every node's inbox; runs only between windows
func routeAll() {}

// workerRoot is an annotated worker root: node-local work is fine, the
// barrier call and the cross-node delivery (a write into another node's
// inbox via the cluster) are not.
//
//csb:worker runs on the node goroutine inside a lookahead window
func workerRoot(n *node, other *cluster.Cluster, words []uint64) {
	n.cnt++
	step(n)
	routeAll()                               // want `barrier-only routeAll is called from worker-phase workerRoot`
	other.Node(1).NIC.DeliverWords(0, words) // want `worker-phase workerRoot .* touches cluster.Cluster`
}

// step has no annotation of its own: it inherits worker color from
// workerRoot over the call graph, so its wire stamp and its read of the
// cluster's tracer are reported; a machine's tracer is per-node state.
func step(n *node) {
	n.tr.WireArrived(1, 2) // want `barrier-only journey.WireTracer.WireArrived is called from worker-phase step \(worker via //csb:worker on workerRoot\)`
	_ = n.tr.Retained()    // want `worker-phase step .* touches journey.WireTracer`
	_ = n.mt.Retained()
}

// spawn colors only the goroutine literal, via a line pragma.
func spawn(c *cluster.Cluster) {
	//csb:worker per-node goroutine body
	go func() {
		_ = c.RunFor(1, false) // want `function literal in spawn .* touches cluster.Cluster`
	}()
}

// sanctioned reads a registry the worker goroutine owns; the worker-ok
// pragma records the review.
//
//csb:worker window-phase sampling on the owning goroutine
func sanctioned(reg *counters.Registry) {
	_ = reg //csb:worker-ok per-node registry owned by this node's goroutine
}

// makesBarrierClosure creates (without calling) a closure that runs after
// the window; the barrier annotation stops worker propagation into it.
//
//csb:worker window body staging deferred work
func makesBarrierClosure(n *node) func() {
	//csb:barrier replayed single-threaded at the next barrier
	return func() {
		n.tr.WireDrained(1, 2)
	}
}

// flushFromWorker calls a cross-package barrier API on an otherwise
// sanctioned per-node type; the pinned barrierAPIs contract catches what
// the intra-package call graph cannot see.
//
//csb:worker window body on the node goroutine
func flushFromWorker(m *sim.Machine) {
	m.Tick()
	m.FlushObs() // want `barrier-only sim.Machine.FlushObs is called from worker-phase flushFromWorker`
}

//csb:worker claims the window phase
//csb:barrier and the barrier phase
func confused() {} // want `confused is annotated both //csb:worker and //csb:barrier`
