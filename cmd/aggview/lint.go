// The lint subcommand runs the IR soundness linter over catalog
// scripts: `aggview lint [-json report.json] [-v] script.sql...`.
// It exits 0 when every script is free of error- and warn-severity
// diagnostics, 1 otherwise; -json additionally writes the full
// machine-readable report (including info-severity usability records),
// a report.Report of irlint.Diagnostic rows.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"aggview/internal/analysis/irlint"
	"aggview/internal/report"
)

func runLint(args []string) {
	fs := flag.NewFlagSet("aggview lint", flag.ExitOnError)
	jsonOut := fs.String("json", "", "write the machine-readable report to this file")
	verbose := fs.Bool("v", false, "also print info-severity usability records")
	fs.Parse(args)
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: aggview lint [-json report.json] [-v] script.sql...")
		os.Exit(2)
	}
	code, err := lint(fs.Args(), *jsonOut, *verbose, os.Stdout)
	if err != nil {
		fatal(err)
	}
	os.Exit(code)
}

// lintTool names the lint report's writer.
const lintTool = "aggview lint"

// lint lints each file, prints the diagnostics, and returns the
// process exit code (0 clean, 1 failing diagnostics).
func lint(files []string, jsonOut string, verbose bool, out io.Writer) (int, error) {
	ctx := context.Background()
	rep := report.New[irlint.Diagnostic](lintTool)
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			return 0, err
		}
		res := irlint.LintScript(ctx, file, string(src))
		rep.Notes = append(rep.Notes, file)
		rep.Counts["files"]++
		rep.Counts["views"] += int64(res.Views)
		rep.Counts["queries"] += int64(res.Queries)
		rep.Counts["failing"] += int64(res.Failing())
		rep.Rows = append(rep.Rows, res.Diags...)
	}
	for _, d := range rep.Rows {
		if d.Severity == irlint.Info && !verbose {
			continue
		}
		fmt.Fprintf(out, "%s: [%s] %s: %s\n", d.File, d.Severity, d.Check, d.Message)
	}
	fmt.Fprintf(out, "aggview lint: %d file(s), %d view(s), %d query(s), %d failing diagnostic(s)\n",
		rep.Counts["files"], rep.Counts["views"], rep.Counts["queries"], rep.Counts["failing"])
	if rep.Counts["failing"] > 0 {
		rep.Verdict = "fail"
	}
	if jsonOut != "" {
		if err := rep.WriteFile(jsonOut); err != nil {
			return 0, err
		}
	}
	if rep.Verdict == "fail" {
		return 1, nil
	}
	return 0, nil
}
