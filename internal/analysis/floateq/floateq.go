// Package floateq flags exact equality comparisons on floating-point
// values and on value.Value operands.
//
// One rule decides equality for values, value.Compare, whose 0 is
// value.KeyEqual: -0 equals 0, every NaN equals every NaN, an int meets a
// float exactly. Float == disagrees with it on NaN, and struct == on
// value.Value disagrees with it on 1 and 1.0 and on -0 and 0. The
// sanctioned comparison paths are value.KeyEqual / value.Compare for
// scalars and engine.ResultsEqualBag, the exact bag equality built on
// them, for relations. No comparison anywhere grants a tolerance, so no
// function is exempt; an exact comparison that is semantically required
// (a division-by-zero guard, an integrality test) carries an
// //aggvet:floateq directive with its justification.
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
	Doc: "flags ==/!= on float operands and on value.Value operands: compare values with " +
		"value.KeyEqual or value.Compare (the one rule: NaN equals NaN, -0 equals 0, 1 equals 1.0) " +
		"and relations with the exact engine.ResultsEqualBag",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			lt, rt := pass.TypeOf(be.X), pass.TypeOf(be.Y)
			switch {
			case isFloat(lt) || isFloat(rt):
				pass.Reportf(be.Pos(),
					"exact %s on float operands disagrees with the value rule (NaN is not == NaN); "+
						"use value.KeyEqual or value.Compare, or justify with //aggvet:floateq", be.Op)
			case isValueStruct(lt) || isValueStruct(rt):
				pass.Reportf(be.Pos(),
					"%s on value.Value compares structs field-by-field (1 != 1.0, exact float payloads); "+
						"use value.KeyEqual or value.Compare", be.Op)
			}
			return true
		})
	}
	return nil
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
