// Package phasesafe enforces the parallel cluster engine's phase
// discipline. The windowed engine (internal/cluster/engine.go) runs each
// node's whole lookahead windows on one of a pool of host threads; all
// shared mutation happens single-threaded at the barrier between windows.
// That split is expressed as function colors:
//
//	//csb:worker <reason>   the function runs on a pool thread inside a
//	                        node's lookahead window and may touch only
//	                        node-local state;
//	//csb:barrier <reason>  the function runs single-threaded between
//	                        windows and is forbidden inside one.
//
// Worker color propagates over the package-local call graph (including
// nested function literals), so helpers reached from a worker root are
// held to the same rules without their own annotation. A propagated or
// annotated worker function must not
//
//   - call a //csb:barrier function (routing, trace drains, recorder
//     rolls, future Snapshot/Restore) or a pinned barrier-only method of
//     another package (the cluster's wire-journey stamps among them),
//     and
//   - mention a value of a cross-node shared type: cluster.Cluster,
//     journey.WireTracer (the cluster's tracer, reads included),
//     counters.Registry, rec.Recorder. Per-node state (sim.Machine,
//     device.NIC, cluster.Node, a machine's journey.Tracer) is the
//     sanctioned set and stays unrestricted.
//
// A statement-level //csb:worker-ok <reason> pragma sanctions a reviewed
// shared-state touch (for example, a read of a per-node registry that
// this node's goroutine owns).
package phasesafe

import (
	"go/ast"
	"go/types"

	"csbsim/internal/analysis"
)

// Analyzer is the phase-discipline checker.
var Analyzer = &analysis.Analyzer{
	Name: "phasesafe",
	Doc:  "propagates //csb:worker / //csb:barrier phase colors over the call graph and reports worker-phase code reaching barrier-only APIs or cross-node shared state",
	Run:  run,
}

// sharedTypes names the cross-node shared types worker-phase code must
// not touch, with a short description for diagnostics. The per-node set
// (sim.Machine, device.NIC, cluster.Node) is deliberately absent: a
// worker owns its node outright during a window.
var sharedTypes = map[string]string{
	"csbsim/internal/cluster.Cluster":        "cross-node cluster state (other nodes' machines, links, inboxes)",
	"csbsim/internal/obs/journey.WireTracer": "the cluster's wire-journey tracer",
	"csbsim/internal/obs/counters.Registry":  "a counter registry read at barriers",
	"csbsim/internal/obs/rec.Recorder":       "the flight recorder (reads every node's registries)",
}

// barrierAPIs lists barrier-only entry points on otherwise-sanctioned
// types, keyed "pkgpath.Type.Method". The intra-package call graph
// cannot see another package's //csb:barrier annotations, so the
// cross-package contract is pinned here — keep in sync with the pragmas
// at the declarations. The wire stamps are also caught as touches of a
// shared journey.WireTracer; pinning them names the barrier rule.
var barrierAPIs = map[string]bool{
	"csbsim/internal/sim.Machine.FlushObs":                true,
	"csbsim/internal/obs/journey.WireTracer.WireDeparted": true,
	"csbsim/internal/obs/journey.WireTracer.WireDropped":  true,
	"csbsim/internal/obs/journey.WireTracer.WireArrived":  true,
	"csbsim/internal/obs/journey.WireTracer.WireEnqueued": true,
	"csbsim/internal/obs/journey.WireTracer.WireDrained":  true,
	"csbsim/internal/obs/rec.Recorder.Start":              true,
	"csbsim/internal/obs/rec.Recorder.Roll":               true,
	"csbsim/internal/obs/rec.Recorder.Flush":              true,
	"csbsim/internal/obs/rec.Recorder.Event":              true,
}

type color uint8

const (
	colorNone color = iota
	colorWorker
	colorBarrier
)

type checker struct {
	pass   *analysis.Pass
	cg     *analysis.CallGraph
	color  map[*analysis.FuncNode]color
	origin map[*analysis.FuncNode]string // annotated root a worker color came from
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:   pass,
		cg:     analysis.BuildCallGraph(pass),
		color:  make(map[*analysis.FuncNode]color),
		origin: make(map[*analysis.FuncNode]string),
	}
	var queue []*analysis.FuncNode
	for _, n := range c.cg.Nodes {
		worker, barrier := c.annotated(n, "worker"), c.annotated(n, "barrier")
		switch {
		case worker && barrier:
			pass.Reportf(n.Pos(), "%s is annotated both //csb:worker and //csb:barrier; a function runs in exactly one phase", n.Name())
			c.color[n] = colorBarrier
		case worker:
			c.color[n] = colorWorker
			c.origin[n] = n.Name()
			queue = append(queue, n)
		case barrier:
			c.color[n] = colorBarrier
		}
	}
	// Propagate worker color breadth-first. Each node is dequeued at most
	// once, and its call sites are examined exactly then.
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Calls {
			switch c.color[e.Callee] {
			case colorBarrier:
				c.pass.Reportf(e.Site.Pos(),
					"barrier-only %s is called from worker-phase %s (worker via //csb:worker on %s); barrier APIs run single-threaded between lookahead windows, never inside one",
					e.Callee.Name(), n.Name(), c.origin[n])
			case colorNone:
				c.color[e.Callee] = colorWorker
				c.origin[e.Callee] = c.origin[n]
				queue = append(queue, e.Callee)
			}
		}
		// A literal created inside a worker body runs (at the latest) when
		// the worker calls it, so it inherits the color — unless annotated
		// barrier, which asserts it is only invoked after the window.
		for _, lit := range n.Lits {
			if c.color[lit] == colorNone {
				c.color[lit] = colorWorker
				c.origin[lit] = c.origin[n]
				queue = append(queue, lit)
			}
		}
	}
	for _, n := range c.cg.Nodes {
		if c.color[n] == colorWorker {
			c.checkShared(n)
		}
	}
	return nil
}

// annotated reports whether node n carries the named phase pragma: in the
// doc comment for declared functions, on the literal's line (or the line
// above) for function literals.
func (c *checker) annotated(n *analysis.FuncNode, name string) bool {
	if n.Decl != nil {
		return analysis.FuncPragma(n.Decl, name)
	}
	return c.pass.Pragma(n.Lit.Pos(), name)
}

// checkShared reports mentions of cross-node shared types inside a
// worker-colored body. Nested literals are skipped — they are their own
// call-graph nodes. One report per source line keeps a chained expression
// like c.tracer.WireDrained(...) from firing at every level.
func (c *checker) checkShared(n *analysis.FuncNode) {
	body := n.Body()
	if body == nil {
		return
	}
	reported := make(map[int]bool)
	ast.Inspect(body, func(x ast.Node) bool {
		if _, isLit := x.(*ast.FuncLit); isLit {
			return false
		}
		e, isExpr := x.(ast.Expr)
		if !isExpr {
			return true
		}
		switch e.(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.CallExpr, *ast.IndexExpr:
		default:
			return true
		}
		if call, isCall := e.(*ast.CallExpr); isCall {
			if api := c.barrierAPI(call); api != "" {
				line := c.pass.Fset.Position(e.Pos()).Line
				if reported[line] {
					return false
				}
				reported[line] = true
				if c.pass.Pragma(e.Pos(), "worker-ok") {
					return false
				}
				c.pass.Reportf(e.Pos(),
					"barrier-only %s is called from worker-phase %s (worker via //csb:worker on %s); barrier APIs run single-threaded between lookahead windows, never inside one",
					api, n.Name(), c.origin[n])
				return false
			}
		}
		name, desc := sharedType(c.pass.Info.TypeOf(e))
		if name == "" {
			return true
		}
		line := c.pass.Fset.Position(e.Pos()).Line
		if reported[line] {
			return false
		}
		reported[line] = true
		if c.pass.Pragma(e.Pos(), "worker-ok") {
			return false
		}
		c.pass.Reportf(e.Pos(),
			"worker-phase %s (worker via //csb:worker on %s) touches %s — %s; shared state may only be accessed at barriers (or annotate //csb:worker-ok with a reason)",
			n.Name(), c.origin[n], name, desc)
		return false
	})
}

// barrierAPI reports a call to a cross-package barrier-only method,
// returning its short display name ("sim.Machine.FlushObs") or "".
func (c *checker) barrierAPI(call *ast.CallExpr) string {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := c.pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	obj := named.Obj()
	if !barrierAPIs[obj.Pkg().Path()+"."+obj.Name()+"."+fn.Name()] {
		return ""
	}
	return obj.Pkg().Name() + "." + obj.Name() + "." + fn.Name()
}

// sharedType resolves t (through pointers) to a named type in the shared
// set, returning its short name and description, or "", "".
func sharedType(t types.Type) (string, string) {
	if t == nil {
		return "", ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", ""
	}
	full := obj.Pkg().Path() + "." + obj.Name()
	desc, ok := sharedTypes[full]
	if !ok {
		return "", ""
	}
	return obj.Pkg().Name() + "." + obj.Name(), desc
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
