// Package waitleak flags goroutine launches in the engine and rewriter
// kernels that are not tied to any join construct in the same function.
//
// The parallel kernels (DESIGN.md section 6) promise that every worker
// they fan out is joined before the kernel returns — results are
// committed in deterministic order and no goroutine outlives its call.
// A `go` statement in internal/engine, internal/core, internal/obs,
// internal/oracle, internal/faultinject or the aggview facade whose
// enclosing function contains no join — no .Wait() call
// (sync.WaitGroup, errgroup), no channel receive, no range-over-channel,
// no select — is either a leak or a kernel whose completion nobody
// observes; both break the determinism and race guarantees the test
// suite enforces. internal/obs is in scope because a monitor goroutine
// there runs alongside the kernels it observes; an unjoined monitor
// outlives the pool it samples and races its own Snapshot.
// oracle, faultinject and the facade are in scope because the
// cancellation harness promises zero leaked goroutines after an
// injected abort — a fire-and-forget goroutine anywhere on those paths
// would invalidate the leak checks the ctx tests run.
//
// Functions that intentionally hand ownership elsewhere (e.g. a
// producer whose consumer joins) document it with //aggvet:waitleak.
package waitleak

import (
	"go/ast"
	"go/types"

	"aggview/internal/analysis"
)

// kernelPkgs names the packages whose goroutines must join locally.
var kernelPkgs = map[string]bool{
	"engine":      true,
	"core":        true,
	"obs":         true,
	"oracle":      true,
	"faultinject": true,
	"aggview":     true,
	// The serving layer promises request workers never outlive their
	// request (the load harness's leak check depends on it), so its
	// goroutines are held to the same join discipline.
	"server": true,
}

// Analyzer flags unjoined go statements in the kernel packages.
var Analyzer = &analysis.Analyzer{
	Name: "waitleak",
	Doc: "flags `go` statements in the kernel and cancellation-harness packages (engine, core, obs, " +
		"oracle, faultinject, aggview, server) whose enclosing function " +
		"has no join construct (.Wait() call, channel receive, range over channel, select); " +
		"kernel goroutines must be joined before the kernel returns",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !kernelPkgs[pass.Pkg.Name()] {
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
	var launches []*ast.GoStmt
	joined := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			launches = append(launches, x)
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				joined = true
			}
		case *ast.UnaryExpr:
			if x.Op.String() == "<-" {
				joined = true
			}
		case *ast.SelectStmt:
			joined = true
		case *ast.RangeStmt:
			if t := pass.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					joined = true
				}
			}
		}
		return true
	})
	if joined {
		return
	}
	for _, g := range launches {
		pass.Reportf(g.Pos(),
			"goroutine launched in %s.%s with no join in the function (no Wait call, channel receive or select); "+
				"join it or justify ownership transfer with //aggvet:waitleak",
			pass.Pkg.Name(), fn.Name.Name)
	}
}
