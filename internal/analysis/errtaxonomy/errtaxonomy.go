// Package errtaxonomy guards the typed-error taxonomy PR 5 and PR 7
// built: budget.Canceled/budget.Exceeded, the server's ShedError and
// badQueryError, and faultinject.Injected are the contract between the
// kernels and every caller that maps errors to behavior (retry,
// fallback, HTTP status). That contract only holds if errors are
// classified with errors.Is/errors.As and wrapped with %w — an == on
// error values misses wrapped instances, an %v wrap silently strips
// the type, and a server error switch that omits a taxonomy member
// maps it to 500.
//
// Three rules:
//
//  1. ==/!= between two non-nil error values anywhere in the module:
//     use errors.Is, which sees through wrapping.
//  2. fmt.Errorf with an error-typed argument but no %w verb, in a
//     function that itself returns an error (a propagation path, per
//     the framework's ReturnsError fact): the wrap discards the
//     taxonomy type. The diagnostic fires at the Errorf.
//  3. In package server only: a classification chain that tests two or
//     more taxonomy members (by errors.As target type or errors.Is /
//     budget.IsCanceled / budget.IsExceeded call) must test all five —
//     ShedError, Canceled, Exceeded, Injected, badQueryError — because
//     a partial switch sends the missing members to the default arm
//     (HTTP 500) and the load harness's status assertions go blind.
package errtaxonomy

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"aggview/internal/analysis"
)

// Analyzer enforces errors.Is/As classification and %w wrapping.
var Analyzer = &analysis.Analyzer{
	Name: "errtaxonomy",
	Doc: "enforces the typed-error discipline: no ==/!= on error values (use errors.Is), " +
		"no fmt.Errorf without %w around an error on a propagation path, and server error " +
		"switches must cover the full taxonomy (ShedError, Canceled, Exceeded, Injected, badQueryError)",
	Run: run,
}

// taxonomy lists the members a server classification chain must cover,
// keyed by the name the test recognizes them by: the errors.As target
// type's name, or the classification function's name.
var taxonomy = []struct{ member, via string }{
	{"ShedError", "type"},
	{"Canceled", "IsCanceled"},
	{"Exceeded", "IsExceeded"},
	{"Injected", "type"},
	{"badQueryError", "type"},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkCompares(pass, fn)
			checkWraps(pass, fn)
			if pass.Pkg != nil && pass.Pkg.Name() == "server" {
				checkCoverage(pass, fn)
			}
		}
	}
	return nil
}

// checkCompares flags ==/!= where both operands are error-typed and
// neither is the nil literal (rule 1).
func checkCompares(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		if isNilIdent(be.X) || isNilIdent(be.Y) {
			return true
		}
		if isErrorExpr(pass, be.X) && isErrorExpr(pass, be.Y) {
			pass.Reportf(be.OpPos,
				"error values compared with %s: wrapped errors never compare equal; use errors.Is",
				be.Op)
		}
		return true
	})
}

// checkWraps flags fmt.Errorf calls that take an error argument with no
// %w verb inside error-returning functions (rule 2).
func checkWraps(pass *analysis.Pass, fn *ast.FuncDecl) {
	obj, _ := pass.ObjectOf(fn.Name).(*types.Func)
	if obj == nil {
		return
	}
	ff := pass.Facts().Lookup(obj)
	if ff == nil || !ff.ReturnsError {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Errorf" {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "fmt" {
			return true
		}
		format, ok := constantString(pass, call.Args[0])
		if !ok || strings.Contains(format, "%w") {
			return true
		}
		for _, arg := range call.Args[1:] {
			if isErrorExpr(pass, arg) {
				pass.Reportf(call.Pos(),
					"fmt.Errorf wraps an error without %%w on a propagation path: the typed "+
						"taxonomy (budget.Canceled/Exceeded, ShedError, Injected) is stripped and "+
						"errors.Is/As above this frame go blind; use %%w")
				return true
			}
		}
		return true
	})
}

// checkCoverage flags classification chains in package server that test
// some but not all taxonomy members (rule 3).
func checkCoverage(pass *analysis.Pass, fn *ast.FuncDecl) {
	seen := map[string]bool{}
	var firstPos token.Pos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		member := classifiedMember(pass, call)
		if member == "" {
			return true
		}
		if firstPos == token.NoPos {
			firstPos = call.Pos()
		}
		seen[member] = true
		return true
	})
	if len(seen) < 2 {
		// Zero or one test is not a classification chain — a helper
		// peeling off a single case (e.g. an IsTransient retry check)
		// is not claiming to map the taxonomy.
		return
	}
	var missing []string
	for _, m := range taxonomy {
		if !seen[m.member] {
			missing = append(missing, m.member)
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	pass.Reportf(firstPos,
		"error classification in %s covers %d taxonomy members but misses %s: "+
			"unhandled members fall through to the default arm (HTTP 500)",
		fn.Name.Name, len(seen), strings.Join(missing, ", "))
}

// classifiedMember reports which taxonomy member a call tests: an
// errors.As with a target whose element type is a member, an errors.Is
// against a member value, or a budget.IsCanceled/IsExceeded call.
func classifiedMember(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	switch {
	case pkgID.Name == "errors" && sel.Sel.Name == "As" && len(call.Args) == 2:
		if name := namedTypeOf(pass, call.Args[1]); name != "" {
			for _, m := range taxonomy {
				if m.via == "type" && m.member == name {
					return name
				}
			}
		}
	case pkgID.Name == "errors" && sel.Sel.Name == "Is" && len(call.Args) == 2:
		if name := namedTypeOf(pass, call.Args[1]); name != "" {
			for _, m := range taxonomy {
				if m.member == name {
					return name
				}
			}
		}
	case pkgID.Name == "budget":
		for _, m := range taxonomy {
			if m.via == sel.Sel.Name {
				return m.member
			}
		}
	}
	return ""
}

// namedTypeOf returns the named type of e with pointers stripped
// (errors.As targets are **T or *T; errors.Is targets are values).
func namedTypeOf(pass *analysis.Pass, e ast.Expr) string {
	t := pass.TypeOf(e)
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func isErrorExpr(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func constantString(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv := pass.TypesInfo.Types[e]
	if tv.Value == nil {
		return "", false
	}
	return strings.Trim(tv.Value.ExactString(), "`\""), true
}
