// Package analysis is a small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics. The
// toolchain image this repository builds in has no module proxy access,
// so the x/tools framework itself cannot be vendored; the subset here is
// API-shaped like the original so the aggvet analyzers could be ported
// to a real multichecker by swapping the import path.
//
// Suppression follows the vet convention of machine-readable comments:
// a comment of the form
//
//	//aggvet:<name> <justification>
//
// on the flagged line, or on a line directly above it, silences the
// analyzer called <name> at that site. Justifications are free text but
// the linter treats a bare directive with no justification as an error,
// so every suppression documents why the invariant holds anyway.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects the Pass's package and
// reports findings through Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer; it is also the suppression
	// directive name (//aggvet:<Name>).
	Name string
	// Doc is the one-paragraph description shown by aggvet -help.
	Doc string
	// Aliases lists additional directive names that suppress this
	// analyzer (e.g. maporder honours the //aggvet:ordered spelling).
	Aliases []string
	// Run performs the analysis.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string
	TypesInfo *types.Info

	// pkg is the loaded package, when the Pass was built by
	// RunAnalyzer; Pass.Facts caches cross-function summaries on it so
	// all analyzers in a run share one computation.
	pkg *Package

	directives map[string]map[int][]directive // filename -> line -> directives
	diags      []Diagnostic
	suppressed int
}

// directive is one parsed //aggvet: comment. Justified records whether
// free text followed the name: a bare directive does not suppress (the
// package doc promises every suppression documents its reason), it
// only changes the finding's message to say so.
type directive struct {
	name      string
	justified bool
}

// Diagnostic is one finding; aggvet -json writes them as its report's
// rows.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

// String renders the diagnostic in the vet file:line:col format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless a justified suppression
// directive for this analyzer covers the line. A bare directive (no
// justification text) does not suppress; the finding surfaces with a
// note naming the bare directive.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	bare := false
	for _, name := range append([]string{p.Analyzer.Name}, p.Analyzer.Aliases...) {
		switch p.match(name, position) {
		case matchJustified:
			p.suppressed++
			return
		case matchBare:
			bare = true
		}
	}
	msg := fmt.Sprintf(format, args...)
	if bare {
		msg += fmt.Sprintf(" (bare //aggvet:%s directive: add a justification to suppress)", p.Analyzer.Name)
	}
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  msg,
	})
}

// Diagnostics returns the findings reported so far, in source order.
func (p *Pass) Diagnostics() []Diagnostic {
	out := append([]Diagnostic{}, p.diags...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}

// TypeOf returns the type of an expression, or nil when type checking
// did not resolve it (e.g. a package with loader errors).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t := p.TypesInfo.TypeOf(e); t != nil {
		return t
	}
	return nil
}

// ObjectOf resolves an identifier to its object (definition or use).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// matchKind classifies how a directive covers a finding.
type matchKind int

const (
	matchNone matchKind = iota
	matchBare
	matchJustified
)

// match reports how the directives on line (or the line above it)
// cover the named analyzer.
func (p *Pass) match(name string, pos token.Position) matchKind {
	if p.directives == nil {
		p.directives = map[string]map[int][]directive{}
		for _, f := range p.Files {
			fname := p.Fset.Position(f.Pos()).Filename
			p.directives[fname] = fileDirectives(p.Fset, f)
		}
	}
	lines := p.directives[pos.Filename]
	kind := matchNone
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, d := range lines[l] {
			if d.name != name {
				continue
			}
			if d.justified {
				return matchJustified
			}
			kind = matchBare
		}
	}
	return kind
}

// fileDirectives extracts the //aggvet: directives of one file, keyed by
// the line the comment sits on.
func fileDirectives(fset *token.FileSet, f *ast.File) map[int][]directive {
	out := map[int][]directive{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			name, just, ok := parseDirective(c.Text)
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			out[line] = append(out[line], directive{name: name, justified: just})
		}
	}
	return out
}

// parseDirective extracts the analyzer name from an //aggvet:<name>
// comment and reports whether non-empty justification text follows it;
// ok is false for ordinary comments.
func parseDirective(comment string) (name string, justified, ok bool) {
	const prefix = "//aggvet:"
	if !strings.HasPrefix(comment, prefix) {
		return "", false, false
	}
	rest := strings.TrimPrefix(comment, prefix)
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name, justified = rest[:i], strings.TrimSpace(rest[i:]) != ""
	} else {
		name = rest
	}
	if name == "" {
		return "", false, false
	}
	return name, justified, true
}

// RunAnalyzer applies one analyzer to one loaded package. It returns
// the surviving findings and the number of findings that justified
// //aggvet: directives suppressed.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, int, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		PkgPath:   pkg.PkgPath,
		TypesInfo: pkg.Info,
		pkg:       pkg,
	}
	if err := a.Run(pass); err != nil {
		return nil, 0, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
	}
	return pass.Diagnostics(), pass.suppressed, nil
}
