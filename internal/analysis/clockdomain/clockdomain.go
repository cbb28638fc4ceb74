// Package clockdomain enforces the cluster's clock-domain discipline.
// Every cycle stamp lives in exactly one node's clock domain: stamps are
// read from a machine's Cycle() (or the cluster coordinator's Cycle()).
// Comparing or subtracting stamps read from two different domains
// silently produces skewed latencies — under the windowed engine the
// node clocks agree only to within one lookahead window.
//
// The analyzer tracks uint64 cycle values from their sources: a value is
// tainted with the textual receiver of the Cycle() call that produced it
// (`a.M` in `a.M.Cycle()`), taint flows through assignment, conversion
// and arithmetic within a function, and through package-local helper
// functions whose returns carry a stamp (the call graph supplies those).
// A binary comparison or arithmetic expression whose operands carry two
// different domains is reported; there is no exemption.
//
// The tracking is intraprocedural and flow-insensitive across loop
// back-edges; struct fields and parameters start untainted. That is the
// deliberate trade: it catches the bug class at its source (mixing two
// freshly read clocks) without false positives on stamps already stored
// in spans.
package clockdomain

import (
	"go/ast"
	"go/token"
	"go/types"

	"csbsim/internal/analysis"
)

// Analyzer is the clock-domain checker.
var Analyzer = &analysis.Analyzer{
	Name: "clockdomain",
	Doc:  "flags comparisons/arithmetic mixing cycle stamps from different node clock domains",
	Run:  run,
}

// cycleSources names the receiver types whose Cycle() method yields a raw
// stamp in that receiver's clock domain.
var cycleSources = map[string]bool{
	"csbsim/internal/sim.Machine":     true,
	"csbsim/internal/cluster.Cluster": true,
}

type checker struct {
	pass    *analysis.Pass
	helpers map[*types.Func]bool // package-local funcs returning raw stamps
}

func run(pass *analysis.Pass) error {
	cg := analysis.BuildCallGraph(pass)
	c := &checker{pass: pass, helpers: make(map[*types.Func]bool)}
	// Fixpoint over "cycle-returning helpers": a declared function whose
	// return statement yields a domain-tainted value. Calls to a helper are
	// then sources keyed by the call site's receiver, so `a.now()` and
	// `b.now()` taint with different domains.
	for changed := true; changed; {
		changed = false
		for _, n := range cg.Nodes {
			if n.Obj == nil || c.helpers[n.Obj] || n.Body() == nil {
				continue
			}
			if c.returnsStamp(n) {
				c.helpers[n.Obj] = true
				changed = true
			}
		}
	}
	for _, n := range cg.Nodes {
		c.checkFunc(n)
	}
	return nil
}

// returnsStamp reports whether some return statement in n yields a value
// carrying a clock domain.
func (c *checker) returnsStamp(n *analysis.FuncNode) bool {
	found := false
	ast.Inspect(n.Body(), func(x ast.Node) bool {
		if found {
			return false
		}
		if _, isLit := x.(*ast.FuncLit); isLit {
			return false
		}
		ret, ok := x.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			if c.domainOf(nil, r) != "" {
				found = true
			}
		}
		return true
	})
	return found
}

// checkFunc walks one function body in source order, tracking variable
// domains through assignments and reporting mixed-domain binaries.
// Nested literals are their own call-graph nodes and are skipped here.
func (c *checker) checkFunc(n *analysis.FuncNode) {
	body := n.Body()
	if body == nil {
		return
	}
	env := make(map[types.Object]string)
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			c.recordAssign(env, x.Lhs, x.Rhs)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(x.Names))
			for i, id := range x.Names {
				lhs[i] = id
			}
			c.recordAssign(env, lhs, x.Values)
		case *ast.BinaryExpr:
			c.checkBinary(env, x)
		}
		return true
	})
}

// recordAssign propagates domains from rhs values to plain-identifier
// lhs targets (including the comma-ok form `v, ok := m[k]`).
func (c *checker) recordAssign(env map[types.Object]string, lhs, rhs []ast.Expr) {
	if len(rhs) == 1 && len(lhs) == 2 {
		rhs = []ast.Expr{rhs[0], nil}
	}
	if len(lhs) != len(rhs) {
		return
	}
	for i := range lhs {
		if rhs[i] == nil {
			continue
		}
		id, ok := lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		obj := c.pass.Info.ObjectOf(id)
		if obj == nil {
			continue
		}
		if d := c.domainOf(env, rhs[i]); d != "" {
			env[obj] = d
		}
	}
}

// binary ops that combine or compare two stamps.
var mixOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
	token.REM: true, token.LSS: true, token.LEQ: true, token.GTR: true,
	token.GEQ: true, token.EQL: true, token.NEQ: true,
}

func (c *checker) checkBinary(env map[types.Object]string, b *ast.BinaryExpr) {
	if !mixOps[b.Op] {
		return
	}
	dx := c.domainOf(env, b.X)
	dy := c.domainOf(env, b.Y)
	if dx == "" || dy == "" || dx == dy {
		return
	}
	c.pass.Reportf(b.Pos(),
		"cycle stamps from different clock domains (%s vs %s) combined without alignment; node clocks agree only to within one lookahead window",
		dx, dy)
}

// domainOf computes the clock domain an expression's value carries: ""
// or a receiver-keyed domain like "a.M". env may be nil.
func (c *checker) domainOf(env map[types.Object]string, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return c.domainOf(env, e.X)
	case *ast.UnaryExpr:
		return c.domainOf(env, e.X)
	case *ast.Ident:
		if obj := c.pass.Info.ObjectOf(e); obj != nil {
			return env[obj]
		}
	case *ast.CallExpr:
		// A conversion (uint64(x), int64(x)) is domain-transparent.
		if tv, ok := c.pass.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return c.domainOf(env, e.Args[0])
		}
		if d, ok := c.sourceCall(e); ok {
			return d
		}
	case *ast.BinaryExpr:
		dx, dy := c.domainOf(env, e.X), c.domainOf(env, e.Y)
		switch {
		case dx == "":
			return dy
		case dy == "" || dx == dy:
			return dx
		default:
			// Mixed domains: checkBinary reports at this node; the result
			// keeps one side's domain so the report is not repeated upward.
			return dx
		}
	}
	return ""
}

// sourceCall recognizes calls producing raw stamps: Cycle() on a machine
// or the cluster, and calls to cycle-returning package-local helpers. The
// domain is the textual receiver (or the whole call for receiver-less
// helpers, so `now(a)` and `now(b)` stay distinct).
func (c *checker) sourceCall(call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if isSel {
		id = sel.Sel
	} else if i, ok := unparen(call.Fun).(*ast.Ident); ok {
		id = i
	} else {
		return "", false
	}
	fn, ok := c.pass.Info.Uses[id].(*types.Func)
	if !ok {
		return "", false
	}
	if fn.Name() == "Cycle" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && cycleSources[namedPath(sig.Recv().Type())] {
			if isSel {
				return types.ExprString(sel.X), true
			}
			return types.ExprString(call), true
		}
	}
	if c.helpers[fn] {
		if isSel {
			return types.ExprString(sel.X), true
		}
		return types.ExprString(call), true
	}
	return "", false
}

// namedPath renders a (possibly pointer) named type as "pkgpath.Name".
func namedPath(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
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
