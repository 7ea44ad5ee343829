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
//	go run ./cmd/aggvet -json VET.json ./...   # also write the report (DESIGN.md section 7)
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
	"io"
	"os"

	"aggview/internal/analysis"
	"aggview/internal/report"

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
	jsonPath := flag.String("json", "", "write the report (counts findings.<analyzer> and suppressions.<analyzer>, one row per finding) to this path")
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
	rep, err := vet(".", flag.Args(), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aggvet:", err)
		os.Exit(1)
	}
	if *jsonPath != "" {
		if werr := rep.WriteFile(*jsonPath); werr != nil {
			fmt.Fprintln(os.Stderr, "aggvet: writing report:", werr)
			os.Exit(1)
		}
	}
	if rep.Verdict == "fail" {
		fmt.Fprintf(os.Stderr, "aggvet: %d diagnostics\n", len(rep.Rows))
		for _, a := range analyzers {
			findings, suppressed := rep.Counts["findings."+a.Name], rep.Counts["suppressions."+a.Name]
			if findings > 0 || suppressed > 0 {
				fmt.Fprintf(os.Stderr, "aggvet:   %-14s %d findings, %d suppressed\n", a.Name, findings, suppressed)
			}
		}
		os.Exit(1)
	}
}

// vetTool names the vet report's writer.
const vetTool = "aggvet"

// vet loads the patterns relative to dir, runs every analyzer on every
// loaded package, prints diagnostics to out, and returns the report:
// one row per unsuppressed finding, in source order, and per analyzer
// (zero included, proving it ran) findings.<name> and
// suppressions.<name>; the verdict fails on any finding.
func vet(dir string, patterns []string, out io.Writer) (*report.Report[analysis.Diagnostic], error) {
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	rep := report.New[analysis.Diagnostic](vetTool)
	rep.Counts["packages"] = int64(len(pkgs))
	for _, a := range analyzers {
		rep.Counts["findings."+a.Name] = 0
		rep.Counts["suppressions."+a.Name] = 0
	}
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			// Analyzers need sound type information; a package that does
			// not type-check is a build failure, not a lint finding.
			return nil, fmt.Errorf("package %s has load errors (run go build first): %w", pkg.PkgPath, pkg.Errors[0])
		}
		for _, a := range analyzers {
			diags, suppressed, err := analysis.RunAnalyzer(a, pkg)
			if err != nil {
				return nil, err
			}
			rep.Counts["findings."+a.Name] += int64(len(diags))
			rep.Counts["suppressions."+a.Name] += int64(suppressed)
			for _, d := range diags {
				fmt.Fprintln(out, d.String())
			}
			rep.Rows = append(rep.Rows, diags...)
		}
	}
	if len(rep.Rows) > 0 {
		rep.Verdict = "fail"
	}
	return rep, nil
}
