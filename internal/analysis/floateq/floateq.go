// Package floateq flags exact equality comparisons on floating-point
// values and on value.Value operands.
//
// Rewritten queries reconstruct AVG as SUM/COUNT and rescale SUMs by
// COUNT columns, so numerically equal results can differ in the last
// few bits; comparing them with == silently turns a correct rewriting
// into a spurious mismatch (or hides a real one). The sanctioned
// comparison paths are engine.ResultsEqualBag for relations and
// value.KeyEqual / value.Compare, the one rule for values, for scalars.
//
// Two exemptions keep the analyzer precise:
//   - epsilon helpers: a function whose body references an identifier
//     containing "epsilon" (e.g. bagEpsilon) is itself the tolerance
//     primitive, and its exact-equality fast path is intentional;
//   - //aggvet:floateq directives with a justification, for the rare
//     exact comparisons that are semantically required (division-by-
//     zero guards, integrality tests).
package floateq

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"aggview/internal/analysis"
)

// valuePkgSuffix identifies the scalar value package across module
// renames.
const valuePkgSuffix = "internal/value"

// Analyzer flags ==/!= on floats and on value.Value.
var Analyzer = &analysis.Analyzer{
	Name: "floateq",
	Doc: "flags ==/!= on float operands (use an epsilon comparison such as " +
		"engine.ResultsEqualBag's valuesClose) and on value.Value operands " +
		"(use value.KeyEqual, which compares 1 and 1.0 and -0 and 0 as equal; struct equality does not)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			if isEpsilonHelper(fn) {
				return true
			}
			checkFunc(pass, fn)
			return true
		})
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		lt, rt := pass.TypeOf(be.X), pass.TypeOf(be.Y)
		switch {
		case isFloat(lt) || isFloat(rt):
			pass.Reportf(be.Pos(),
				"exact %s on float operands: aggregate reconstruction (AVG = SUM/COUNT, scaled SUMs) "+
					"makes bit equality unreliable; compare with an epsilon or justify with //aggvet:floateq", be.Op)
		case isValueStruct(lt) || isValueStruct(rt):
			pass.Reportf(be.Pos(),
				"%s on value.Value compares structs field-by-field (1 != 1.0, exact float payloads); "+
					"use value.KeyEqual or value.Compare", be.Op)
		}
		return true
	})
}

// isEpsilonHelper reports whether the function is itself a tolerance
// primitive: its body mentions an epsilon identifier.
func isEpsilonHelper(fn *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && strings.Contains(strings.ToLower(id.Name), "epsilon") {
			found = true
			return false
		}
		return !found
	})
	return found
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isValueStruct matches the named struct type Value from the value
// package (or an alias of it).
func isValueStruct(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Value" || obj.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(obj.Pkg().Path(), valuePkgSuffix)
}
