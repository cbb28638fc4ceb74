// Package determinism enforces bit-identical simulation output in the
// packages that compute results: no wall-clock time, no math/rand, and no
// unsorted map iteration whose order can leak into output or statistics.
//
// Two map-iteration idioms are recognized as order-independent and
// allowed without annotation:
//
//   - collect-then-sort: every statement in the loop body appends to a
//     slice (`keys = append(keys, k)`), which callers sort afterwards;
//   - map copy: every statement assigns through a map index
//     (`dst[k] = v`), whose result is the same in any order.
//
// Any other map iteration must either be restructured over sorted keys or
// carry a //csb:orderless pragma on the range line asserting that order
// cannot affect output.
package determinism

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"csbsim/internal/analysis"
)

// Packages lists the import paths whose output must be deterministic.
// Subdirectories are included (prefix match on a path boundary).
var Packages = []string{
	"csbsim/internal/cpu",
	"csbsim/internal/bus",
	"csbsim/internal/cache",
	"csbsim/internal/core",
	"csbsim/internal/uncbuf",
	"csbsim/internal/sim",
	"csbsim/internal/bench",
	"csbsim/internal/fault",
	"csbsim/internal/device",
	"csbsim/internal/obs/counters",
	"csbsim/internal/obs/journey",
	"csbsim/internal/obs/rec",
	"csbsim/internal/cluster",
	// Covered by the prefix rule above, but listed explicitly: the load
	// generator drives the serving experiments and must replay exactly
	// from a seed (fault.PRNG only, no math/rand, no wall clock).
	"csbsim/internal/cluster/loadgen",
}

// bannedTimeFuncs are the time-package entry points that read the wall
// clock or schedule on it.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTicker": true, "NewTimer": true, "AfterFunc": true,
	"Sleep": true,
}

// Analyzer is the determinism checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbids wall-clock time, math/rand and unsorted map iteration in the deterministic simulation packages",
	Run:  run,
}

// InScope reports whether path falls under the deterministic package set.
func InScope(path string) bool {
	for _, p := range Packages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !InScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"import of %s in deterministic package %s; seedable randomness must stay out of the simulation core",
					path, pass.Pkg.Path())
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkTimeCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkTimeCall reports calls to wall-clock functions of package time.
func checkTimeCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
		return
	}
	if bannedTimeFuncs[obj.Name()] {
		pass.Reportf(call.Pos(),
			"time.%s in deterministic package %s; simulated time must come from cycle counters",
			obj.Name(), pass.Pkg.Path())
	}
}

// checkMapRange reports range statements over maps unless the body is an
// order-independent idiom or the line carries //csb:orderless.
func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt) {
	t := pass.Info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if pass.Pragma(rs.Pos(), "orderless") {
		return
	}
	if orderIndependentBody(pass, rs.Body) {
		return
	}
	pass.Reportf(rs.Pos(),
		"map iteration order is nondeterministic and the loop body is order-sensitive; iterate over sorted keys (or annotate //csb:orderless)")
}

// orderIndependentBody reports whether every statement in body is either a
// slice-collect append or a map-index assignment — the two idioms whose
// result does not depend on iteration order.
func orderIndependentBody(pass *analysis.Pass, body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return true
	}
	for _, st := range body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		if isCollectAppend(pass, as) || isMapIndexAssign(pass, as) {
			continue
		}
		return false
	}
	return true
}

// isCollectAppend matches `x = append(x, ...)` with both x's denoting the
// same variable.
func isCollectAppend(pass *analysis.Pass, as *ast.AssignStmt) bool {
	if as.Tok.String() != "=" {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	return sameVar(pass, as.Lhs[0], call.Args[0])
}

// isMapIndexAssign matches `dst[k] = v` where dst is a map.
func isMapIndexAssign(pass *analysis.Pass, as *ast.AssignStmt) bool {
	if as.Tok.String() != "=" {
		return false
	}
	ix, ok := as.Lhs[0].(*ast.IndexExpr)
	if !ok {
		return false
	}
	t := pass.Info.TypeOf(ix.X)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// sameVar reports whether two expressions denote the same variable (plain
// identifiers only; anything fancier fails safe).
func sameVar(pass *analysis.Pass, a, b ast.Expr) bool {
	ia, ok := a.(*ast.Ident)
	if !ok {
		return false
	}
	ib, ok := b.(*ast.Ident)
	if !ok {
		return false
	}
	oa := pass.Info.ObjectOf(ia)
	return oa != nil && oa == pass.Info.ObjectOf(ib)
}
