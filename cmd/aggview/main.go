// Aggview is the command-line front end to the rewriter: it loads a SQL
// script (CREATE TABLE / CREATE VIEW declarations, INSERT, DELETE and
// UPDATE statements, and SELECT statements), optionally loads CSV data,
// and for each SELECT prints the view-based rewritings, the chosen plan,
// and — when data is loaded — the results.
//
// Usage:
//
//	aggview [-data table=file.csv ...] [-exec] [-paper-faithful] script.sql
//	aggview -timeout 5s -max-rows 1000000 -exec ... script.sql   # bounded queries
//	aggview -demo          # run the built-in Example 1.1 demo
//
// Script example:
//
//	CREATE TABLE Calls(Call_Id, Plan_Id, Year, Charge) KEY(Call_Id);
//	CREATE VIEW V1 AS SELECT Plan_Id, Year, SUM(Charge) FROM Calls GROUP BY Plan_Id, Year;
//	SELECT Plan_Id, SUM(Charge) FROM Calls WHERE Year = 1995 GROUP BY Plan_Id;
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"aggview"
	"aggview/internal/budget"
	"aggview/internal/datagen"
	"aggview/internal/engine"
	"aggview/internal/sqlparser"
)

type dataFlags []string

func (d *dataFlags) String() string { return strings.Join(*d, ",") }

func (d *dataFlags) Set(v string) error {
	*d = append(*d, v)
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "lint" {
		runLint(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "explain" {
		runExplain(os.Args[2:])
		return
	}

	var data dataFlags
	flag.Var(&data, "data", "load CSV data: table=file.csv (repeatable)")
	exec := flag.Bool("exec", false, "execute each query (requires data)")
	plan := flag.Bool("plan", false, "print the engine's physical plan for each query")
	paperFaithful := flag.Bool("paper-faithful", false, "restrict to the paper's original operations (no arithmetic inside aggregates)")
	timeout := flag.Duration("timeout", 0, "per-query deadline for rewrite search and execution (0: none)")
	maxRows := flag.Int64("max-rows", 0, "per-query row-processing budget across all kernels and view materializations (0: unlimited)")
	maxCandidates := flag.Int64("max-candidates", 0, "per-query rewrite-search candidate budget; an exhausted search falls back to direct evaluation (0: unlimited)")
	maxMem := flag.Int64("max-mem", 0, "per-query memory budget in bytes for columnar data the engine materializes (0: unlimited)")
	demo := flag.Bool("demo", false, "run the built-in Example 1.1 demo")
	flag.Parse()

	if *demo {
		if err := runDemo(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: aggview [flags] script.sql  (or aggview -demo)")
		flag.PrintDefaults()
		os.Exit(2)
	}
	ctx := context.Background()
	s, queries, err := loadScriptSystem(ctx, flag.Arg(0), data, *paperFaithful)
	if err != nil {
		fatal(err)
	}
	// Budgets apply to the query phase, not to script loading or view
	// materialization: every facade call below routes through them.
	s.Opts.Deadline = *timeout
	s.Opts.MaxRows = *maxRows
	s.Opts.MaxCandidates = *maxCandidates
	s.Opts.MaxMemBytes = *maxMem

	for i, q := range queries {
		fmt.Printf("-- query %d --\n", i+1)
		report, err := s.Explain(ctx, q)
		switch {
		case budget.IsExceeded(err):
			// -max-candidates promises a fallback, not a failure: the
			// report says the search was cut, and -exec runs directly.
			report = fmt.Sprintf("rewrite search cut: %v\n", err)
		case err != nil:
			fatal(err)
		}
		fmt.Print(report)
		if *plan {
			q, err := s.Parse(q)
			if err != nil {
				fatal(err)
			}
			fmt.Print("physical plan:\n" + engine.NewEvaluator(s.DB, s.Views).Explain(q))
		}
		if *exec {
			res, used, err := s.QueryBestContext(ctx, q)
			if err != nil {
				fatal(err)
			}
			if used != nil {
				fmt.Printf("executed via %v\n", used.Used)
			} else {
				fmt.Println("executed directly")
			}
			fmt.Println(res.Sorted())
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aggview:", err)
	os.Exit(1)
}

// loadScriptSystem builds a system from a SQL script: every statement but
// a SELECT executes in script order (ExecContext, as cmd/aggserve loads
// its script), CSV data files (table=file.csv specs) are inserted, and
// every declared view is then tracked when rows were written. It returns
// the script's SELECT statements in order.
func loadScriptSystem(ctx context.Context, path string, data dataFlags, paperFaithful bool) (*aggview.System, []string, error) {
	script, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}

	s := aggview.New()
	s.Opts.PaperFaithful = paperFaithful

	stmts, err := sqlparser.ParseScript(string(script))
	if err != nil {
		return nil, nil, err
	}
	var queries []string
	wrote := len(data) > 0
	for _, st := range stmts {
		if x, ok := st.(*sqlparser.QueryStatement); ok {
			queries = append(queries, x.Query.SQL())
			continue
		}
		n, err := s.ExecContext(ctx, st)
		if err != nil {
			return nil, nil, err
		}
		wrote = wrote || n > 0
	}
	for _, spec := range data {
		name, file, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, nil, fmt.Errorf("bad -data %q, want table=file.csv", spec)
		}
		if err := loadCSV(ctx, s, name, file); err != nil {
			return nil, nil, err
		}
	}
	// Track every declared view so rewritten plans scan materializations.
	if wrote {
		for _, v := range s.Views.All() {
			if _, err := s.TrackViewContext(ctx, v.Name); err != nil {
				return nil, nil, fmt.Errorf("tracking %s: %w", v.Name, err)
			}
		}
	}
	return s, queries, nil
}

// loadCSV reads a headerless CSV file into a declared table, inferring
// int, float or string per cell.
func loadCSV(ctx context.Context, s *aggview.System, table, file string) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return err
	}
	rows := make([][]aggview.Value, 0, len(records))
	for _, rec := range records {
		row := make([]aggview.Value, len(rec))
		for i, cell := range rec {
			row[i] = parseCell(strings.TrimSpace(cell))
		}
		rows = append(rows, row)
	}
	return s.InsertContext(ctx, table, rows...)
}

func parseCell(cell string) aggview.Value {
	if n, err := strconv.ParseInt(cell, 10, 64); err == nil {
		return aggview.Int(n)
	}
	if f, err := strconv.ParseFloat(cell, 64); err == nil {
		return aggview.Float(f)
	}
	return aggview.Str(cell)
}

// runDemo executes Example 1.1 end to end on generated data, writing
// the rewriting report and the answer to w.
func runDemo(w io.Writer) error {
	ctx := context.Background()
	s := aggview.New()
	if err := datagen.Telco(datagen.TelcoConfig{Calls: 50000, Seed: 1}).Load(ctx, s); err != nil {
		return err
	}
	s.MustDefineView("V1", `
		SELECT Calls.Plan_Id, Plan_Name, Month, Year, SUM(Charge)
		FROM Calls, Calling_Plans
		WHERE Calls.Plan_Id = Calling_Plans.Plan_Id
		GROUP BY Calls.Plan_Id, Plan_Name, Month, Year`)
	if _, err := s.TrackViewContext(ctx, "V1"); err != nil {
		return err
	}
	q := `SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge)
		FROM Calls, Calling_Plans
		WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1995
		GROUP BY Calling_Plans.Plan_Id, Plan_Name
		HAVING SUM(Charge) < 1000000`
	report, err := s.Explain(ctx, q)
	if err != nil {
		return err
	}
	fmt.Fprint(w, report)
	res, used, err := s.QueryBestContext(ctx, q)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nexecuted via %v:\n%s", used.Used, res.Sorted())
	return nil
}
