// Package keyescape guards the canonical-key collision-freedom
// invariant: the plan cache, the view cache and the rewrite memoizer
// all key on strings assembled by canonicalKey/PlanKey-style builders,
// and two distinct queries whose fragments concatenate to the same
// bytes would silently share a cached plan. The defense is structural:
// every variable fragment that flows into a key is routed through the
// escaping helper (core.keyEscape), which percent-escapes the
// delimiter characters the builders join with, so delimiters in data
// can never masquerade as delimiters in structure.
//
// The analyzer seeds on function names that mark key builders —
// anything matching (?i)(canonical|plan|cache|view)key — and inside
// them flags string concatenation operands, string-typed fmt.Sprintf
// arguments and strings spread into a byte buffer by append(dst, s...)
// that are not visibly escaped material: a
// string literal, a call to the escape helper (keyEscape /
// EscapeKeyPart spellings), a call to an intra-package function whose
// every string return is escaped material (the framework's
// EscapedKeyFn fact, computed transitively), or a concatenation of
// such parts. Sprintf arguments of non-string type are unchecked:
// numbers and booleans render without delimiters, and slice arguments
// ([]string) are escaped at the leaf where their elements were built —
// the fact computation follows them there.
//
// A fragment that is collision-safe for a reason the analyzer cannot
// see (e.g. already validated against a delimiter-free grammar)
// documents it with //aggvet:keyescape.
package keyescape

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"aggview/internal/analysis"
)

// keyFnRE matches the names of key-builder functions.
var keyFnRE = regexp.MustCompile(`(?i)(canonical|plan|cache|view)key`)

// Analyzer flags unescaped fragments inside key-builder functions.
var Analyzer = &analysis.Analyzer{
	Name: "keyescape",
	Doc: "flags string fragments concatenated into canonical/plan/cache keys without passing " +
		"through the key-escaping helper; unescaped fragments let data bytes collide with " +
		"key-structure delimiters and two distinct queries share a cache entry",
	Run: run,
}

func run(pass *analysis.Pass) error {
	facts := pass.Facts()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !keyFnRE.MatchString(fn.Name.Name) {
				continue
			}
			checkBuilder(pass, facts, fn)
		}
	}
	return nil
}

func checkBuilder(pass *analysis.Pass, facts *analysis.Facts, fn *ast.FuncDecl) {
	// seenConcat marks concat subtrees already handled from their root,
	// so ((a+b)+c) reports each unsafe leaf exactly once.
	seenConcat := map[ast.Node]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BinaryExpr:
			if x.Op != token.ADD || seenConcat[x] || !isStringExpr(pass, x) {
				return true
			}
			markConcat(x, seenConcat)
			for _, leaf := range concatLeaves(x) {
				if !safeFragment(pass, facts, leaf) {
					pass.Reportf(leaf.Pos(),
						"unescaped fragment %s concatenated into key in %s; route it through the "+
							"key-escaping helper (keyEscape) so data bytes cannot collide with key delimiters",
						exprString(leaf), fn.Name.Name)
				}
			}
		case *ast.CallExpr:
			if arg := appendedString(pass, x); arg != nil && !safeFragment(pass, facts, arg) {
				pass.Reportf(arg.Pos(),
					"unescaped fragment %s appended into key in %s; route it through the "+
						"key-escaping helper (keyEscape)", exprString(arg), fn.Name.Name)
			}
			if !isSprintf(x) || len(x.Args) < 2 {
				return true
			}
			for _, arg := range x.Args[1:] {
				if isStringExpr(pass, arg) && !safeFragment(pass, facts, arg) {
					pass.Reportf(arg.Pos(),
						"unescaped string argument %s formatted into key in %s; route it through the "+
							"key-escaping helper (keyEscape)", exprString(arg), fn.Name.Name)
				}
			}
		}
		return true
	})
}

// safeFragment reports visibly escaped material: literals, escape
// helper calls, calls to transitively escaped intra-package builders,
// and concatenations of such parts.
func safeFragment(pass *analysis.Pass, facts *analysis.Facts, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return safeFragment(pass, facts, x.X)
	case *ast.BinaryExpr:
		return x.Op == token.ADD && safeFragment(pass, facts, x.X) && safeFragment(pass, facts, x.Y)
	case *ast.CallExpr:
		var callee *types.Func
		switch fun := x.Fun.(type) {
		case *ast.Ident:
			callee, _ = pass.ObjectOf(fun).(*types.Func)
		case *ast.SelectorExpr:
			callee, _ = pass.ObjectOf(fun.Sel).(*types.Func)
		}
		if callee == nil {
			return false
		}
		if analysis.IsEscapeHelperName(callee.Name()) {
			return true
		}
		ff := facts.Lookup(callee)
		return ff != nil && ff.EscapedKeyFn
	}
	return false
}

// concatLeaves flattens a + tree into its leaf expressions.
func concatLeaves(e ast.Expr) []ast.Expr {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return concatLeaves(x.X)
	case *ast.BinaryExpr:
		if x.Op == token.ADD {
			return append(concatLeaves(x.X), concatLeaves(x.Y)...)
		}
	}
	return []ast.Expr{e}
}

// markConcat marks every ADD node of the subtree as handled.
func markConcat(e ast.Expr, seen map[ast.Node]bool) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		markConcat(x.X, seen)
	case *ast.BinaryExpr:
		if x.Op == token.ADD {
			seen[x] = true
			markConcat(x.X, seen)
			markConcat(x.Y, seen)
		}
	}
}

// appendedString returns s of a builtin append(dst, s...) that spreads
// a string into a byte buffer, else nil.
func appendedString(pass *analysis.Pass, call *ast.CallExpr) ast.Expr {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || !call.Ellipsis.IsValid() || len(call.Args) != 2 {
		return nil
	}
	if b, ok := pass.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	if arg := call.Args[1]; isStringExpr(pass, arg) {
		return arg
	}
	return nil
}

func isSprintf(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sprintf" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "fmt"
}

func isStringExpr(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// exprString renders a short description of the flagged expression.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if base, ok := x.X.(*ast.Ident); ok {
			return base.Name + "." + x.Sel.Name
		}
		return x.Sel.Name
	case *ast.CallExpr:
		switch fun := x.Fun.(type) {
		case *ast.Ident:
			return fun.Name + "(...)"
		case *ast.SelectorExpr:
			return fun.Sel.Name + "(...)"
		}
	}
	return "expression"
}
