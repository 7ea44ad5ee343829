package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the cross-function half of the framework (DESIGN.md
// section 8): per-function summaries ("facts") computed once per
// package over the AST and type information, in a deterministic
// bottom-up order over the intra-package call graph, and shared by
// every analyzer through Pass.Facts(). Facts let an analyzer reason
// about a whole call chain — "this exported entry point eventually
// blocks", "everything this function returns went through the
// key-escaping helper" — without each analyzer re-walking the package.
//
// Facts are intra-package by design: cross-package summaries would
// need a whole-program driver and a serialization format, and every
// invariant the fact readers guard (ctx threading, error taxonomy, key
// escaping) is stated per package. Calls into other packages contribute
// only what their signatures and names expose (e.g. time.Sleep is
// blocking).

// FuncFacts is the summary of one function or method.
type FuncFacts struct {
	// HasCtxParam reports a context.Context parameter (any position).
	HasCtxParam bool

	// Blocks reports that the function may block: it contains a direct
	// blocking operation (time.Sleep, channel send/receive, a select
	// without default, a range over a channel, a .Wait() call, a
	// net/http round trip) or calls — transitively, within the package
	// — a function that does. BlockDesc names the reason.
	Blocks    bool
	BlockDesc string

	// ReturnsError reports an error in the function's results.
	ReturnsError bool

	// EscapedKeyFn reports that every string the function returns is
	// key-safe by construction: a literal, a call to the key-escaping
	// helper, a concatenation of such parts, or a call to another
	// intra-package EscapedKeyFn. keyescape treats calls to these
	// functions as escaped material.
	EscapedKeyFn bool
}

// funcNode is one function of the package call graph: its facts, its
// object and syntax, and its intra-package callees in source order,
// deduplicated — the edges the bottom-up propagation runs over.
// syncCallees is the subset invoked synchronously (not as a goroutine,
// not from inside a function literal): only those propagate the Blocks
// fact, because a blocking goroutine or a blocking returned closure does
// not block its definer.
type funcNode struct {
	FuncFacts
	obj                  *types.Func
	decl                 *ast.FuncDecl
	callees, syncCallees []*types.Func
}

// Facts holds one package's function summaries.
type Facts struct {
	funcs map[*types.Func]*funcNode
	// order lists every function bottom-up: callees before callers
	// (cycles broken deterministically by source position), the order
	// the propagation sweeps run in.
	order []*funcNode
}

// Lookup returns the facts for a callee object, or nil for functions
// outside the package (or function literals).
func (f *Facts) Lookup(obj *types.Func) *FuncFacts {
	if f == nil || obj == nil {
		return nil
	}
	if n := f.funcs[obj]; n != nil {
		return &n.FuncFacts
	}
	return nil
}

// Facts returns the package's function summaries, computing them on
// first use. The result is cached on the loaded package, so the
// analyzers of the aggvet suite share one computation.
func (p *Pass) Facts() *Facts {
	if p.pkg == nil {
		// A Pass constructed without a *Package (not via RunAnalyzer)
		// computes facts uncached.
		return computeFacts(p.Files, p.TypesInfo)
	}
	p.pkg.factsOnce.Do(func() {
		p.pkg.facts = computeFacts(p.pkg.Files, p.pkg.Info)
	})
	return p.pkg.facts
}

// escapeHelperNames are the accepted spellings of the key-escaping
// helper (see internal/core.keyEscape and the keyescape analyzer).
var escapeHelperNames = map[string]bool{
	"keyEscape": true, "KeyEscape": true,
	"escapeKey": true, "EscapeKey": true,
	"escapeKeyPart": true, "EscapeKeyPart": true,
}

// IsEscapeHelperName reports whether name is a recognized spelling of
// the key-escaping helper.
func IsEscapeHelperName(name string) bool { return escapeHelperNames[name] }

// computeFacts builds the summaries: one syntax pass per function for
// the direct facts and the callee edges, a deterministic bottom-up
// ordering of the call graph, then monotone propagation sweeps over
// that order until the transitive facts reach a fixpoint (cycles make
// one sweep insufficient; the facts are boolean and monotone, so the
// sweeps converge in at most |funcs| rounds).
func computeFacts(files []*ast.File, info *types.Info) *Facts {
	f := &Facts{funcs: map[*types.Func]*funcNode{}}
	var all []*funcNode
	for _, file := range files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := info.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &funcNode{obj: obj, decl: fn}
			directFacts(n, fn, info)
			f.funcs[obj] = n
			all = append(all, n)
		}
	}
	// Source order is the deterministic base ordering everything else
	// derives from.
	sort.Slice(all, func(i, j int) bool { return all[i].decl.Pos() < all[j].decl.Pos() })

	// Bottom-up order: depth-first over callee edges, callees first.
	visited := map[*types.Func]bool{}
	var visit func(n *funcNode)
	visit = func(n *funcNode) {
		if visited[n.obj] {
			return
		}
		visited[n.obj] = true
		for _, callee := range n.callees {
			if cn := f.funcs[callee]; cn != nil {
				visit(cn)
			}
		}
		f.order = append(f.order, n)
	}
	for _, n := range all {
		visit(n)
	}

	// Propagation sweeps to fixpoint.
	for changed := true; changed; {
		changed = false
		for _, n := range f.order {
			for _, callee := range n.syncCallees {
				cn := f.funcs[callee]
				if cn != nil && cn.Blocks && !n.Blocks {
					n.Blocks = true
					n.BlockDesc = fmt.Sprintf("calls %s, which %s", callee.Name(), cn.BlockDesc)
					changed = true
				}
			}
			// EscapedKeyFn is re-evaluated under current callee facts
			// (it can only be revoked, never granted, by a sweep: a
			// callee assumed escaped may turn out not to be).
			if n.EscapedKeyFn && !escapedReturns(n, f, info) {
				n.EscapedKeyFn = false
				changed = true
			}
		}
	}
	return f
}

// directFacts fills the single-function facts and callee edges.
func directFacts(n *funcNode, fn *ast.FuncDecl, info *types.Info) {
	sig := n.obj.Signature()
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			n.HasCtxParam = true
		}
	}
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if isErrorType(results.At(i).Type()) {
			n.ReturnsError = true
		}
		if isStringType(results.At(i).Type()) {
			n.EscapedKeyFn = true // revoked below unless returns stay escaped
		}
	}

	seenCallee := map[*types.Func]bool{}
	seenSync := map[*types.Func]bool{}
	// litSpans tracks every function literal's body: a blocking op (or
	// blocking callee) inside one blocks the literal — a goroutine, a
	// defer, a returned closure — not this function. goCalls tracks
	// `go f(...)` statements with a named callee, excluded for the same
	// reason.
	var litSpans [][2]token.Pos
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(fn.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			litSpans = append(litSpans, [2]token.Pos{x.Body.Pos(), x.Body.End()})
		case *ast.GoStmt:
			goCalls[x.Call] = true
		}
		return true
	})
	inLit := func(pos token.Pos) bool {
		for _, span := range litSpans {
			if span[0] <= pos && pos <= span[1] {
				return true
			}
		}
		return false
	}
	setBlock := func(pos token.Pos, desc string) {
		if n.Blocks || inLit(pos) {
			return
		}
		n.Blocks, n.BlockDesc = true, desc
	}

	ast.Inspect(fn.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				setBlock(x.Pos(), "receives from a channel")
			}
		case *ast.SendStmt:
			setBlock(x.Pos(), "sends on a channel")
		case *ast.SelectStmt:
			if !selectHasDefault(x) {
				setBlock(x.Pos(), "selects with no default")
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					setBlock(x.Pos(), "ranges over a channel")
				}
			}
		case *ast.CallExpr:
			callee := calleeFunc(x, info)
			if callee == nil {
				break
			}
			pkg := callee.Pkg()
			switch {
			case pkg != nil && pkg.Path() == "time" && callee.Name() == "Sleep":
				setBlock(x.Pos(), "calls time.Sleep")
			case pkg != nil && strings.HasPrefix(pkg.Path(), "net/http") && httpBlocking[callee.Name()]:
				setBlock(x.Pos(), "performs an HTTP round trip ("+callee.Name()+")")
			case callee.Name() == "Wait" && callee.Signature().Recv() != nil:
				setBlock(x.Pos(), "calls "+recvTypeName(callee)+".Wait")
			}
			if pkg == n.obj.Pkg() && callee != n.obj {
				if !seenCallee[callee] {
					seenCallee[callee] = true
					n.callees = append(n.callees, callee)
				}
				if !seenSync[callee] && !goCalls[x] && !inLit(x.Pos()) {
					seenSync[callee] = true
					n.syncCallees = append(n.syncCallees, callee)
				}
			}
		}
		return true
	})
	sortFuncs(n.callees)
	sortFuncs(n.syncCallees)
}

// httpBlocking names the net/http functions and methods that actually
// perform a round trip or serve requests; constructors (NewServeMux,
// NewRequestWithContext, ...) are not blocking.
var httpBlocking = map[string]bool{
	"Do": true, "Get": true, "Head": true, "Post": true, "PostForm": true,
	"ServeHTTP": true, "Serve": true, "ListenAndServe": true,
	"ListenAndServeTLS": true, "Shutdown": true,
}

// sortFuncs orders callee lists by declaration position (name-breaking
// ties) so the fact computation is deterministic.
func sortFuncs(fns []*types.Func) {
	sort.Slice(fns, func(i, j int) bool {
		if fns[i].Pos() != fns[j].Pos() {
			return fns[i].Pos() < fns[j].Pos()
		}
		return fns[i].Name() < fns[j].Name()
	})
}

// escapedReturns re-evaluates the EscapedKeyFn fact: every returned
// string expression must be key-safe under the current callee facts.
func escapedReturns(n *funcNode, f *Facts, info *types.Info) bool {
	results := n.obj.Signature().Results()
	stringResult := make([]bool, results.Len())
	for i := range stringResult {
		stringResult[i] = isStringType(results.At(i).Type())
	}
	ok := true
	ast.Inspect(n.decl.Body, func(x ast.Node) bool {
		if !ok {
			return false
		}
		if _, isLit := x.(*ast.FuncLit); isLit {
			return false // literals return for themselves
		}
		ret, isRet := x.(*ast.ReturnStmt)
		if !isRet {
			return true
		}
		if len(ret.Results) != len(stringResult) {
			// Naked return or a single call spread across results:
			// assume unescaped.
			ok = false
			return false
		}
		for i, res := range ret.Results {
			if stringResult[i] && !keySafeExpr(res, f, info) {
				ok = false
			}
		}
		return true
	})
	return ok
}

// keySafeExpr reports whether e is key-safe material: a literal, a
// call to the escape helper, a call to an intra-package EscapedKeyFn,
// or a concatenation of such parts.
func keySafeExpr(e ast.Expr, f *Facts, info *types.Info) bool {
	switch x := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return keySafeExpr(x.X, f, info)
	case *ast.BinaryExpr:
		return x.Op == token.ADD && keySafeExpr(x.X, f, info) && keySafeExpr(x.Y, f, info)
	case *ast.CallExpr:
		callee := calleeFunc(x, info)
		if callee == nil {
			return false
		}
		if IsEscapeHelperName(callee.Name()) {
			return true
		}
		if cf := f.Lookup(callee); cf != nil && cf.EscapedKeyFn {
			return true
		}
		return false
	}
	return false
}

// calleeFunc resolves a call's callee to a *types.Func (nil for
// builtins, function values and type conversions).
func calleeFunc(call *ast.CallExpr, info *types.Info) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func recvTypeName(fn *types.Func) string {
	recv := fn.Signature().Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// isContextType reports context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isErrorType reports the built-in error interface (or a named type
// whose underlying interface is exactly error's).
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// HasContextSibling reports whether fn has a same-package sibling
// function named fn.Name()+"Context" — for package-level functions a
// scope lookup, for methods a lookup in the receiver's method set.
// ctxflow reports such a pair (Exec beside ExecContext): an operation
// has one entry point, the one that takes the ctx.
func HasContextSibling(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	want := fn.Name() + "Context"
	var obj types.Object
	if recv := fn.Signature().Recv(); recv != nil {
		obj, _, _ = types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), want)
	} else {
		obj = fn.Pkg().Scope().Lookup(want)
	}
	_, ok := obj.(*types.Func)
	return ok
}
