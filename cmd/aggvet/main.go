// Aggvet is the multichecker for the repository's custom analyzers
// (DESIGN.md section 8): it loads the named packages with full type
// information and applies the determinism, float-comparison,
// IR-construction, ctx-threading, error-taxonomy, merge-order and
// key-escaping checks that `go vet` cannot express. ctxflow,
// errtaxonomy and keyescape read the framework's cross-function facts:
// per-function summaries propagated bottom-up over each package's call
// graph.
//
//	go run ./cmd/aggvet ./...                  # the CI gate (scripts/check.sh)
//	go run ./cmd/aggvet ./internal/engine      # one package
//	go run ./cmd/aggvet -json VET.json ./...   # also write the benchjson.VetReport
//	go run ./cmd/aggvet -list                  # describe the analyzers
//
// Exit status: 0 on a clean run, 1 when any analyzer reported a
// diagnostic or a package failed to load, 2 on usage errors. On
// failure the per-analyzer finding and suppression counts are printed
// to stderr so the gate log shows which invariant regressed.
//
// Suppression: an `//aggvet:<analyzer> <justification>` comment on the
// flagged line (or the line above) silences that analyzer at that
// site; maporder also honours the //aggvet:ordered spelling. The
// justification text is mandatory — a bare directive does not
// suppress.
package main

import (
	"flag"
	"fmt"
	"os"

	"aggview/internal/analysis"
	"aggview/internal/benchjson"

	"aggview/internal/analysis/ctxflow"
	"aggview/internal/analysis/detmerge"
	"aggview/internal/analysis/errtaxonomy"
	"aggview/internal/analysis/floateq"
	"aggview/internal/analysis/irctor"
	"aggview/internal/analysis/keyescape"
	"aggview/internal/analysis/maporder"
)

// analyzers is the aggvet suite, in reporting order: the v1 per-file
// checks first, then the v2 ones.
var analyzers = []*analysis.Analyzer{
	maporder.Analyzer,
	floateq.Analyzer,
	irctor.Analyzer,
	ctxflow.Analyzer,
	errtaxonomy.Analyzer,
	detmerge.Analyzer,
	keyescape.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	jsonPath := flag.String("json", "", "write a benchjson.VetReport to this path")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: aggvet [-list] [-json report.json] [packages...]  (default ./...)")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}
	report, err := vet(".", flag.Args(), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aggvet:", err)
		os.Exit(1)
	}
	if *jsonPath != "" {
		if werr := report.WriteFile(*jsonPath); werr != nil {
			fmt.Fprintln(os.Stderr, "aggvet: writing report:", werr)
			os.Exit(1)
		}
	}
	if report.TotalFindings > 0 {
		fmt.Fprintf(os.Stderr, "aggvet: %d diagnostics\n", report.TotalFindings)
		for _, a := range report.Analyzers {
			if a.Findings > 0 || a.Suppressions > 0 {
				fmt.Fprintf(os.Stderr, "aggvet:   %-14s %d findings, %d suppressed\n", a.Name, a.Findings, a.Suppressions)
			}
		}
		os.Exit(1)
	}
}

// vet loads the patterns relative to dir, runs every analyzer on every
// loaded package, prints diagnostics to out, and returns the tallied
// report.
func vet(dir string, patterns []string, out *os.File) (*benchjson.VetReport, error) {
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	report := benchjson.NewVet()
	report.Packages = len(pkgs)
	for _, a := range analyzers {
		report.Analyzers = append(report.Analyzers, benchjson.VetAnalyzer{Name: a.Name})
	}
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			// Analyzers need sound type information; a package that does
			// not type-check is a build failure, not a lint finding.
			return nil, fmt.Errorf("package %s has load errors (run go build first): %w", pkg.PkgPath, pkg.Errors[0])
		}
		for i, a := range analyzers {
			diags, suppressed, err := analysis.RunAnalyzer(a, pkg)
			if err != nil {
				return nil, err
			}
			report.Analyzers[i].Findings += len(diags)
			report.Analyzers[i].Suppressions += suppressed
			for _, d := range diags {
				fmt.Fprintln(out, d.String())
				report.Findings = append(report.Findings, benchjson.VetFinding{
					Analyzer: d.Analyzer,
					Pos:      fmt.Sprintf("%s:%d:%d", d.Pos.Filename, d.Pos.Line, d.Pos.Column),
					Message:  d.Message,
				})
			}
		}
	}
	report.Finish()
	return report, nil
}
