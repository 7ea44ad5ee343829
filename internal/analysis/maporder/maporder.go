// Package maporder flags `for range` loops over maps that feed
// order-sensitive output in the packages that promise deterministic
// results (engine, core, oracle, obs, maintain — see DESIGN.md sections
// 6, 7, 9 and 14; obs promises byte-identical metric snapshots and
// maintain a tracked view's row order, so neither may leak map order).
//
// Go randomizes map iteration order, so a map range whose body appends
// to an outer slice, sends on a channel, or concatenates onto an outer
// string produces a different row/result order on every run unless the
// function sorts the collected output afterwards. The engine's
// determinism contract (byte-identical results at every worker count)
// makes that a correctness bug, not a style nit.
//
// A loop is exempt when:
//   - a sort call (sort.* or slices.Sort*) follows the loop in the same
//     function, restoring a canonical order; or
//   - the line (or the line above) carries an //aggvet:maporder
//     directive with a justification, for loops whose output order is
//     genuinely immaterial.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"aggview/internal/analysis"
)

// deterministicPkgs names the packages whose results must not depend on
// map iteration order.
var deterministicPkgs = map[string]bool{
	"engine":   true,
	"core":     true,
	"oracle":   true,
	"obs":      true,
	"maintain": true,
}

// Analyzer flags map ranges feeding ordered output in deterministic
// packages.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flags range-over-map loops that append to outer slices, send on channels, " +
		"or build strings in determinism-promising packages (engine, core, oracle, obs, maintain) " +
		"without a subsequent sort or an //aggvet:ordered justification",
	Aliases: []string{"ordered"},
	Run:     run,
}

func run(pass *analysis.Pass) error {
	if !deterministicPkgs[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			checkFunc(pass, fn)
			return true
		})
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	sortCalls := sortCallPositions(pass, fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		sink := orderedSink(pass, rng)
		if sink == "" {
			return true
		}
		for _, p := range sortCalls {
			if p > rng.End() {
				return true // a later sort restores canonical order
			}
		}
		pass.Reportf(rng.Pos(),
			"range over map %s %s in package %s: map order is randomized; sort the output or justify with //aggvet:ordered",
			exprString(rng.X), sink, pass.Pkg.Name())
		return true
	})
}

// orderedSink classifies whether the loop body writes order-sensitive
// output, returning a description of the sink ("" when it does not).
// Writes into maps are order-insensitive and do not count.
func orderedSink(pass *analysis.Pass, rng *ast.RangeStmt) string {
	sink := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.SendStmt:
			sink = "sends on a channel"
		case *ast.AssignStmt:
			if s := assignSink(pass, rng, x); s != "" {
				sink = s
			}
		}
		return true
	})
	return sink
}

// assignSink recognizes the order-sensitive assignment shapes:
// appending to a slice declared outside the loop, writing through an
// index of an outer slice, or concatenating onto an outer string.
func assignSink(pass *analysis.Pass, rng *ast.RangeStmt, as *ast.AssignStmt) string {
	for i, lhs := range as.Lhs {
		switch l := lhs.(type) {
		case *ast.Ident:
			if !declaredOutside(pass, l, rng) {
				continue
			}
			if i < len(as.Rhs) && isAppendCall(as.Rhs[i]) {
				return "appends to " + l.Name + " (declared outside the loop)"
			}
			if as.Tok == token.ADD_ASSIGN && isStringType(pass.TypeOf(l)) {
				return "concatenates onto " + l.Name + " (declared outside the loop)"
			}
		case *ast.IndexExpr:
			t := pass.TypeOf(l.X)
			if t == nil {
				continue
			}
			switch t.Underlying().(type) {
			case *types.Slice, *types.Array:
				if id, ok := l.X.(*ast.Ident); ok && !declaredOutside(pass, id, rng) {
					continue
				}
				return "writes through a slice index"
			}
		}
	}
	return ""
}

// declaredOutside reports whether the identifier's object is declared
// outside the range statement's span (package vars count as outside).
func declaredOutside(pass *analysis.Pass, id *ast.Ident, rng *ast.RangeStmt) bool {
	obj := pass.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

func isAppendCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// sortCallPositions finds calls through the sort and slices packages.
func sortCallPositions(pass *analysis.Pass, body *ast.BlockStmt) []token.Pos {
	var out []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if obj, isPkg := pass.ObjectOf(pkg).(*types.PkgName); isPkg {
			if p := obj.Imported().Path(); p == "sort" || p == "slices" {
				out = append(out, call.Pos())
			}
		}
		return true
	})
	return out
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	default:
		return "expression"
	}
}
