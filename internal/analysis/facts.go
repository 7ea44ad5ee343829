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
// blocks", "this helper refunds the meter", "everything this function
// returns went through the key-escaping helper" — without each
// analyzer re-walking the package.
//
// Facts are intra-package by design: cross-package summaries would
// need a whole-program driver and a serialization format, and every
// invariant the aggvet suite guards (ctx threading, error taxonomy,
// charge/refund balance, merge determinism, key escaping) is stated
// per package. Calls into other packages contribute only what their
// signatures and names expose (e.g. time.Sleep is blocking).

// FuncFacts is the summary of one function or method.
type FuncFacts struct {
	// Obj is the type-checker object; Decl the syntax.
	Obj  *types.Func
	Decl *ast.FuncDecl

	// HasCtxParam reports a context.Context parameter (any position).
	HasCtxParam bool

	// Blocks reports that the function may block: it contains a direct
	// blocking operation (time.Sleep, channel send/receive, a select
	// without default, a range over a channel, a .Wait() call, a
	// net/http round trip) or calls — transitively, within the package
	// — a function that does. BlockDesc names the reason, BlockPos the
	// first site (the direct op, or the call to the blocking callee).
	Blocks    bool
	BlockDesc string
	BlockPos  token.Pos

	// ReturnsError reports an error in the function's results.
	ReturnsError bool

	// MayReturnUntyped reports that the function may produce an error
	// that discarded a wrapped error's type: a fmt.Errorf with an
	// error-typed argument and no %w verb, directly or via an
	// intra-package callee whose error it propagates.
	MayReturnUntyped bool

	// ChargesMeter / RefundsMeter report calls (direct or via
	// intra-package callees) to budget.Meter charge methods
	// (AddRows/AddCandidates/AddMem/AddCacheEntries) and refund methods
	// (ReleaseCacheEntries) respectively, matched by method name on a
	// receiver type named Meter so fixtures can model the shape.
	ChargesMeter bool
	RefundsMeter bool

	// BuildsKeyString reports that the function returns a string and
	// assembles string data (concatenation or fmt.Sprintf) in its body.
	BuildsKeyString bool

	// EscapedKeyFn reports that every string the function returns is
	// key-safe by construction: a literal, a call to the key-escaping
	// helper, a concatenation of such parts, or a call to another
	// intra-package EscapedKeyFn. keyescape treats calls to these
	// functions as escaped material.
	EscapedKeyFn bool

	// Callees lists the function's intra-package callees in source
	// order, deduplicated — the edges the bottom-up propagation runs
	// over. SyncCallees is the subset invoked synchronously (not as a
	// goroutine, not from inside a function literal): only those
	// propagate the Blocks fact, because a blocking goroutine or a
	// blocking returned closure does not block its definer.
	Callees     []*types.Func
	SyncCallees []*types.Func
}

// Facts holds one package's function summaries.
type Facts struct {
	// Funcs indexes summaries by the type-checker object.
	Funcs map[*types.Func]*FuncFacts
	// Order lists every summarized function bottom-up: callees before
	// callers (cycles broken deterministically by source position), the
	// order the propagation sweeps ran in.
	Order []*FuncFacts
}

// Lookup returns the facts for a callee object, or nil for functions
// outside the package (or function literals).
func (f *Facts) Lookup(obj *types.Func) *FuncFacts {
	if f == nil || obj == nil {
		return nil
	}
	return f.Funcs[obj]
}

// Facts returns the package's function summaries, computing them on
// first use. The result is cached on the loaded package, so the nine
// analyzers of the aggvet suite share one computation.
func (p *Pass) Facts() *Facts {
	if p.pkg == nil {
		// A Pass constructed without a *Package (not via RunAnalyzer)
		// computes facts uncached.
		return computeFacts(p.Fset, p.Files, p.TypesInfo)
	}
	p.pkg.factsOnce.Do(func() {
		p.pkg.facts = computeFacts(p.pkg.Fset, p.pkg.Files, p.pkg.Info)
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
func computeFacts(fset *token.FileSet, files []*ast.File, info *types.Info) *Facts {
	f := &Facts{Funcs: map[*types.Func]*FuncFacts{}}
	var all []*FuncFacts
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
			ff := &FuncFacts{Obj: obj, Decl: fn}
			directFacts(ff, fset, fn, info)
			f.Funcs[obj] = ff
			all = append(all, ff)
		}
	}
	// Source order is the deterministic base ordering everything else
	// derives from.
	sort.Slice(all, func(i, j int) bool { return all[i].Decl.Pos() < all[j].Decl.Pos() })

	// Bottom-up order: depth-first over callee edges, callees first.
	visited := map[*types.Func]bool{}
	var order []*FuncFacts
	var visit func(ff *FuncFacts)
	visit = func(ff *FuncFacts) {
		if visited[ff.Obj] {
			return
		}
		visited[ff.Obj] = true
		for _, callee := range ff.Callees {
			if cf := f.Funcs[callee]; cf != nil {
				visit(cf)
			}
		}
		order = append(order, ff)
	}
	for _, ff := range all {
		visit(ff)
	}
	f.Order = order

	// Propagation sweeps to fixpoint.
	for changed := true; changed; {
		changed = false
		for _, ff := range f.Order {
			for _, callee := range ff.SyncCallees {
				cf := f.Funcs[callee]
				if cf == nil {
					continue
				}
				if cf.Blocks && !ff.Blocks {
					ff.Blocks = true
					ff.BlockDesc = fmt.Sprintf("calls %s, which %s", callee.Name(), cf.BlockDesc)
					ff.BlockPos = callPos(ff.Decl, callee, info)
					changed = true
				}
			}
			for _, callee := range ff.Callees {
				cf := f.Funcs[callee]
				if cf == nil {
					continue
				}
				if cf.MayReturnUntyped && ff.ReturnsError && !ff.MayReturnUntyped {
					ff.MayReturnUntyped = true
					changed = true
				}
				if cf.ChargesMeter && !ff.ChargesMeter {
					ff.ChargesMeter = true
					changed = true
				}
				if cf.RefundsMeter && !ff.RefundsMeter {
					ff.RefundsMeter = true
					changed = true
				}
			}
			// EscapedKeyFn is re-evaluated under current callee facts
			// (it can only be revoked, never granted, by a sweep: a
			// callee assumed escaped may turn out not to be).
			if ff.EscapedKeyFn && !escapedReturns(ff, f, info) {
				ff.EscapedKeyFn = false
				changed = true
			}
		}
	}
	return f
}

// directFacts fills the single-function facts and callee edges.
func directFacts(ff *FuncFacts, fset *token.FileSet, fn *ast.FuncDecl, info *types.Info) {
	sig, _ := ff.Obj.Type().(*types.Signature)
	if sig != nil {
		params := sig.Params()
		for i := 0; i < params.Len(); i++ {
			if isContextType(params.At(i).Type()) {
				ff.HasCtxParam = true
			}
		}
		results := sig.Results()
		returnsString := false
		for i := 0; i < results.Len(); i++ {
			if isErrorType(results.At(i).Type()) {
				ff.ReturnsError = true
			}
			if isStringType(results.At(i).Type()) {
				returnsString = true
			}
		}
		ff.EscapedKeyFn = returnsString // revoked below unless returns stay escaped
		ff.BuildsKeyString = returnsString && buildsString(fn.Body)
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
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
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
		if ff.Blocks || inLit(pos) {
			return
		}
		ff.Blocks, ff.BlockDesc, ff.BlockPos = true, desc, pos
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
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
			if recvIsNamed(callee, "Meter") {
				switch callee.Name() {
				case "AddRows", "AddCandidates", "AddMem", "AddCacheEntries":
					ff.ChargesMeter = true
				case "ReleaseCacheEntries":
					ff.RefundsMeter = true
				}
			}
			if pkg != nil && pkg.Path() == "fmt" && callee.Name() == "Errorf" {
				if errorfDiscardsWrap(x, info) {
					ff.MayReturnUntyped = true
				}
			}
			if pkg == ff.Obj.Pkg() && callee.Signature().Recv() == nil || samePkgMethod(callee, ff.Obj) {
				if !seenCallee[callee] && callee != ff.Obj {
					seenCallee[callee] = true
					ff.Callees = append(ff.Callees, callee)
				}
				if !seenSync[callee] && callee != ff.Obj && !goCalls[x] && !inLit(x.Pos()) {
					seenSync[callee] = true
					ff.SyncCallees = append(ff.SyncCallees, callee)
				}
			}
		}
		return true
	})
	sortFuncs(ff.Callees)
	sortFuncs(ff.SyncCallees)
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

// samePkgMethod reports whether callee is a method declared in the
// same package as fn.
func samePkgMethod(callee, fn *types.Func) bool {
	return callee.Signature().Recv() != nil && callee.Pkg() == fn.Pkg()
}

// escapedReturns re-evaluates the EscapedKeyFn fact: every returned
// string expression must be key-safe under the current callee facts.
func escapedReturns(ff *FuncFacts, f *Facts, info *types.Info) bool {
	sig, _ := ff.Obj.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	stringResult := make([]bool, sig.Results().Len())
	any := false
	for i := 0; i < sig.Results().Len(); i++ {
		if isStringType(sig.Results().At(i).Type()) {
			stringResult[i] = true
			any = true
		}
	}
	if !any {
		return false
	}
	ok := true
	ast.Inspect(ff.Decl.Body, func(n ast.Node) bool {
		if !ok {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // literals return for themselves
		}
		ret, isRet := n.(*ast.ReturnStmt)
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

// buildsString reports whether the body assembles strings: a + whose
// operands are strings, a += on a string, or a fmt.Sprintf call.
func buildsString(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if lit, ok := x.X.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					found = true
				}
				if lit, ok := x.Y.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					found = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sprintf" {
				found = true
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN {
				found = true
			}
		}
		return true
	})
	return found
}

// errorfDiscardsWrap reports whether a fmt.Errorf call wraps an
// error-typed argument without a %w verb, discarding its type.
func errorfDiscardsWrap(call *ast.CallExpr, info *types.Info) bool {
	if len(call.Args) < 2 {
		return false
	}
	format, ok := constantString(call.Args[0], info)
	if !ok || strings.Contains(format, "%w") {
		return false
	}
	for _, arg := range call.Args[1:] {
		if t := info.TypeOf(arg); t != nil && isErrorType(t) {
			return true
		}
	}
	return false
}

// constantString extracts a compile-time string constant.
func constantString(e ast.Expr, info *types.Info) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind().String() != "String" {
		return "", false
	}
	s := tv.Value.ExactString()
	// ExactString returns a quoted literal; the %w scan only needs the
	// raw content, so a cheap unquote-by-trim suffices.
	return strings.Trim(s, "`\""), true
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

// callPos locates the first call to callee within fn (for BlockPos on
// propagated facts); falls back to the declaration position.
func callPos(fn *ast.FuncDecl, callee *types.Func, info *types.Info) token.Pos {
	pos := fn.Pos()
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && calleeFunc(call, info) == callee {
			pos, found = call.Pos(), true
		}
		return true
	})
	return pos
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func recvIsNamed(fn *types.Func, name string) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
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

// String renders the facts for one function as a stable one-line
// summary — the serialization the determinism test compares across
// independent loads.
func (ff *FuncFacts) String() string {
	var parts []string
	flag := func(name string, on bool) {
		if on {
			parts = append(parts, name)
		}
	}
	flag("ctx", ff.HasCtxParam)
	flag("blocks("+ff.BlockDesc+")", ff.Blocks)
	flag("err", ff.ReturnsError)
	flag("untyped", ff.MayReturnUntyped)
	flag("charges", ff.ChargesMeter)
	flag("refunds", ff.RefundsMeter)
	flag("keystr", ff.BuildsKeyString)
	flag("escaped", ff.EscapedKeyFn)
	callees := make([]string, len(ff.Callees))
	for i, c := range ff.Callees {
		callees[i] = c.Name()
	}
	return fmt.Sprintf("%s [%s] -> [%s]", ff.Obj.Name(), strings.Join(parts, " "), strings.Join(callees, " "))
}
