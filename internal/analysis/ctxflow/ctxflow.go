// Package ctxflow enforces the context-threading discipline PR 5
// established: cancellation must reach every blocking operation, so
// exported entry points that may block take a context.Context, contexts
// travel as parameters rather than struct fields, and library code
// derives its context from the caller's instead of minting a fresh
// context.Background().
//
// Four rules, the first built on the framework's cross-function facts
// (analysis.Facts), which know transitively which functions block:
//
//  1. An exported function that blocks (directly or through
//     intra-package callees) must take a context.Context.
//  2. A context.Context stored in a struct field is flagged
//     (go.dev/blog/context-and-structs); per-operation carrier structs
//     that a kernel resolves once at entry document the exception with
//     //aggvet:ctxflow.
//  3. context.Background() in a non-main, non-test package is flagged —
//     library code inherits its context. A bulk-load path that runs
//     unbounded by design documents the exception with //aggvet:ctxflow.
//  4. An exported X beside an exported XContext in the same scope (the
//     package, or one receiver's method set) is flagged at X: an
//     operation has one entry point, and it takes the ctx. A ctx-less
//     twin is how cancellation silently gets dropped below a caller
//     that holds a ctx.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"aggview/internal/analysis"
)

// Analyzer enforces ctx threading on blocking paths.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "enforces context threading: exported blocking entry points take a context.Context, " +
		"contexts are not stored in struct fields, library packages do not mint " +
		"context.Background(), and no exported X has an exported XContext twin",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil || pass.Pkg.Name() == "main" {
		return nil
	}
	facts := pass.Facts()

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				checkStructFields(pass, d)
			case *ast.FuncDecl:
				checkFunc(pass, facts, d)
			}
		}
	}
	return nil
}

// checkStructFields flags context.Context struct fields (rule 2).
func checkStructFields(pass *analysis.Pass, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			if t := pass.TypeOf(field.Type); t != nil && isContext(t) {
				pass.Reportf(field.Pos(),
					"context.Context stored in struct %s: contexts are request-scoped and travel as "+
						"parameters, not fields; pass ctx explicitly or justify a per-operation carrier "+
						"with //aggvet:ctxflow", ts.Name.Name)
			}
		}
	}
}

// checkFunc applies rules 1, 3 and 4 to one function.
func checkFunc(pass *analysis.Pass, facts *analysis.Facts, fn *ast.FuncDecl) {
	if fn.Body == nil {
		return
	}
	obj, _ := pass.ObjectOf(fn.Name).(*types.Func)
	if obj == nil {
		return
	}
	// Rule 4: an exported X beside an exported XContext.
	if fn.Name.IsExported() && analysis.HasContextSibling(obj) {
		pass.Reportf(fn.Name.Pos(),
			"exported %s %s has an exported %sContext twin; an operation has one entry point: "+
				"delete %s and call %sContext",
			kindOf(fn), fn.Name.Name, fn.Name.Name, fn.Name.Name, fn.Name.Name)
	}
	ff := facts.Lookup(obj)
	if ff == nil {
		return
	}

	// Rule 1: exported + blocks + no ctx param.
	if fn.Name.IsExported() && ff.Blocks && !ff.HasCtxParam {
		pass.Reportf(fn.Name.Pos(),
			"exported %s %s (%s) but takes no context.Context; blocking entry points must be cancelable",
			kindOf(fn), fn.Name.Name, ff.BlockDesc)
	}

	inTestFile := strings.HasSuffix(pass.Fset.Position(fn.Pos()).Filename, "_test.go")
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(pass, call)
		if callee == nil {
			return true
		}

		// Rule 3: context.Background() outside main/test code.
		if callee.Pkg() != nil && callee.Pkg().Path() == "context" && callee.Name() == "Background" && !inTestFile {
			pass.Reportf(call.Pos(),
				"context.Background() in package %s: library code derives its context from the "+
					"caller; add a ctx parameter to %s", pass.Pkg.Name(), fn.Name.Name)
		}
		return true
	})
}

func calleeOf(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		f, _ := pass.ObjectOf(fun).(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pass.ObjectOf(fun.Sel).(*types.Func)
		return f
	}
	return nil
}

func kindOf(fn *ast.FuncDecl) string {
	if fn.Recv != nil {
		return "method"
	}
	return "function"
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
