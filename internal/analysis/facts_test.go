package analysis

import (
	"fmt"
	"strings"
	"testing"
)

// renderFacts loads pkgPattern fresh and serializes every function
// summary in propagation order, one stable line per function.
func renderFacts(t *testing.T, dir, pattern string) string {
	t.Helper()
	pkgs, err := Load(dir, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("expected one package, got %d", len(pkgs))
	}
	p := pkgs[0]
	if len(p.Errors) > 0 {
		t.Fatalf("%s: %v", p.PkgPath, p.Errors)
	}
	facts := computeFacts(p.Files, p.Info)
	var b strings.Builder
	for _, n := range facts.order {
		callees := make([]string, len(n.callees))
		for i, c := range n.callees {
			callees[i] = c.Name()
		}
		fmt.Fprintf(&b, "%s %+v -> %v\n", n.obj.Name(), n.FuncFacts, callees)
	}
	return b.String()
}

// TestFactsDeterministic pins the framework contract every analyzer
// depends on: two fully independent loads of the same package (fresh
// FileSet, fresh type-check, fresh call-graph ordering) serialize to
// byte-identical fact tables. Map iteration anywhere in the ordering
// or the propagation sweeps would flake this test immediately.
func TestFactsDeterministic(t *testing.T) {
	const dir, pattern = "../..", "./internal/maintain"
	first := renderFacts(t, dir, pattern)
	if first == "" {
		t.Fatal("no facts computed")
	}
	for i := 0; i < 3; i++ {
		if got := renderFacts(t, dir, pattern); got != first {
			t.Fatalf("load %d produced different facts\nfirst:\n%s\ngot:\n%s", i+2, first, got)
		}
	}
}

// TestFactsCrossFunction spot-checks the transitive facts on a real
// package: maintain.InsertContext reaches the batch machinery only
// through its ApplyContext callee, both thread a ctx and return an
// error, and HasContextSibling finds no X/XContext pair there.
func TestFactsCrossFunction(t *testing.T) {
	pkgs, err := Load("../..", "./internal/maintain")
	if err != nil {
		t.Fatal(err)
	}
	p := pkgs[0]
	if len(p.Errors) > 0 {
		t.Fatalf("%s: %v", p.PkgPath, p.Errors)
	}
	facts := computeFacts(p.Files, p.Info)
	byName := map[string]*funcNode{}
	for _, n := range facts.order {
		byName[n.obj.Name()] = n
	}
	ins, ok := byName["InsertContext"]
	if !ok {
		t.Fatal("no facts for maintain.InsertContext")
	}
	if !ins.HasCtxParam {
		t.Error("InsertContext should have a ctx param")
	}
	if len(ins.callees) != 1 || ins.callees[0].Name() != "ApplyContext" {
		t.Fatalf("InsertContext callees = %v, want [ApplyContext]", ins.callees)
	}
	if apply := byName["ApplyContext"]; apply == nil || !apply.HasCtxParam || !apply.ReturnsError || !ins.ReturnsError {
		t.Error("InsertContext and ApplyContext should both take a ctx and return an error")
	}
	if facts.Lookup(ins.obj) != &ins.FuncFacts {
		t.Error("Lookup does not return the summarized function's facts")
	}
	for _, n := range facts.order {
		if HasContextSibling(n.obj) {
			t.Errorf("%s has a %sContext sibling", n.obj.Name(), n.obj.Name())
		}
	}
}
