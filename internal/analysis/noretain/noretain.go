// Package noretain flags code that retains a pooled object past the call
// that delivered it.
//
// The simulator recycles bus transactions (bus.Txn) and reorder-buffer
// entries (cpu.uop) through free lists; the contract — documented on bus.Txn.Done and the cpu free lists — is
// that a callback or observer handed a pooled pointer must not keep it:
// the owner reuses the object as soon as the call returns, so a retained
// pointer silently aliases a future transaction or instruction.
//
// The analyzer tracks pooled pointers that enter a function as parameters
// (the lender is the caller) or reach a closure as captured variables, and
// reports when such a pointer is stored into a field, slice/map/array
// element, dereference target, package-level variable, channel or
// composite literal, or when a closure capturing one escapes (is not
// invoked on the spot). Sanctioned pool-management code — the free lists
// themselves, the pin-counted fill callbacks — is annotated //csb:pool
// (on the statement line or the enclosing function's doc comment), which
// silences the analyzer there.
package noretain

import (
	"go/ast"
	"go/types"

	"csbsim/internal/analysis"
)

// PooledTypes lists the pool-managed named types as "importpath.Name".
// Values of type *T for any listed T are subject to the no-retention rule.
var PooledTypes = map[string]bool{
	"csbsim/internal/bus.Txn": true,
	"csbsim/internal/cpu.uop": true,
}

// Analyzer is the noretain checker.
var Analyzer = &analysis.Analyzer{
	Name: "noretain",
	Doc:  "reports pooled objects (bus.Txn, uops) retained past the delivering call",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if analysis.FuncPragma(fn, "pool") {
				continue
			}
			transient := map[types.Object]bool{}
			c.addPooledParams(fn.Type, transient)
			c.checkBody(fn.Body, transient)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
}

// pooled reports whether t is a pointer to one of the pooled named types.
func pooled(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	return PooledTypes[obj.Pkg().Path()+"."+obj.Name()]
}

// typeName renders a pooled pointer type compactly ("*bus.Txn").
func typeName(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// addPooledParams records pooled-pointer parameters of a function type as
// transient objects.
func (c *checker) addPooledParams(ft *ast.FuncType, transient map[types.Object]bool) {
	if ft.Params == nil {
		return
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := c.pass.Info.Defs[name]
			if obj != nil && pooled(obj.Type()) {
				transient[obj] = true
			}
		}
	}
}

// transientIdent returns the transient object e directly denotes, or nil.
func transientIdent(info *types.Info, transient map[types.Object]bool, e ast.Expr) types.Object {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Uses[id]
	if obj != nil && transient[obj] {
		return obj
	}
	return nil
}

// storedTransients collects transient objects that an RHS expression would
// store: the expression itself, arguments of append calls, and composite
// literal elements.
func (c *checker) storedTransients(transient map[types.Object]bool, e ast.Expr, out *[]types.Object) {
	if obj := transientIdent(c.pass.Info, transient, e); obj != nil {
		*out = append(*out, obj)
		return
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		c.storedTransients(transient, e.X, out)
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := c.pass.Info.Uses[id].(*types.Builtin); isBuiltin && len(e.Args) > 0 {
				for _, a := range e.Args[1:] {
					c.storedTransients(transient, a, out)
				}
			}
		}
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			c.storedTransients(transient, el, out)
		}
	case *ast.UnaryExpr:
		c.storedTransients(transient, e.X, out)
	}
}

// retains reports whether storing into lhs outlives the current call:
// fields, element writes, dereferences and package-level variables do.
func (c *checker) retains(lhs ast.Expr) bool {
	switch l := lhs.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.ParenExpr:
		return c.retains(l.X)
	case *ast.Ident:
		obj := c.pass.Info.Defs[l]
		if obj == nil {
			obj = c.pass.Info.Uses[l]
		}
		return obj != nil && obj.Parent() == c.pass.Pkg.Scope()
	}
	return false
}

// checkBody walks one function body with the given set of transient
// pooled objects in scope.
func (c *checker) checkBody(body ast.Node, transient map[types.Object]bool) {
	// Function literals that are invoked on the spot do not outlive the
	// statement; collect them so the capture check can skip them.
	calledInline := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if lit, ok := call.Fun.(*ast.FuncLit); ok {
				calledInline[lit] = true
			}
		}
		return true
	})

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if c.pass.Pragma(n.Pos(), "pool") {
				return true
			}
			for i, rhs := range n.Rhs {
				var stored []types.Object
				c.storedTransients(transient, rhs, &stored)
				if len(stored) == 0 {
					continue
				}
				lhs := n.Lhs
				if len(n.Lhs) == len(n.Rhs) {
					lhs = n.Lhs[i : i+1]
				}
				for _, l := range lhs {
					if c.retains(l) {
						for _, obj := range stored {
							c.pass.Reportf(n.Pos(),
								"pooled %s %q stored in a location that outlives the call; the pool recycles it (annotate //csb:pool if this is pool management)",
								typeName(obj.Type()), obj.Name())
						}
						break
					}
				}
			}
		case *ast.SendStmt:
			if obj := transientIdent(c.pass.Info, transient, n.Value); obj != nil && !c.pass.Pragma(n.Pos(), "pool") {
				c.pass.Reportf(n.Pos(),
					"pooled %s %q sent on a channel; the pool recycles it after this call returns",
					typeName(obj.Type()), obj.Name())
			}
		case *ast.FuncLit:
			captured := c.capturedTransients(n, transient)
			if len(captured) > 0 && !calledInline[n] && !c.pass.Pragma(n.Pos(), "pool") {
				c.pass.Reportf(n.Pos(),
					"closure captures pooled %s %q and may outlive the call; copy what you need instead (annotate //csb:pool for pin-counted captures)",
					typeName(captured[0].Type()), captured[0].Name())
			}
			// Recurse with the literal's own pooled parameters added.
			inner := map[types.Object]bool{}
			for o := range transient {
				inner[o] = true
			}
			c.addPooledParams(n.Type, inner)
			c.checkBody(n.Body, inner)
			return false // handled
		}
		return true
	}
	ast.Inspect(body, walk)
}

// capturedTransients returns transient objects referenced inside lit but
// declared outside it.
func (c *checker) capturedTransients(lit *ast.FuncLit, transient map[types.Object]bool) []types.Object {
	var out []types.Object
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := c.pass.Info.Uses[id]
		if obj == nil || !transient[obj] || seen[obj] {
			return true
		}
		// Declared outside the literal?
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			seen[obj] = true
			out = append(out, obj)
		}
		return true
	})
	return out
}
