package core

import "testing"

// TestDropFold: a rewriting each of whose groups is one view row becomes
// the select-project it degenerates to — aggregates unfolded, HAVING
// moved into WHERE, GROUP BY gone — and any other rewriting is left as
// the search emitted it: groups that coalesce view rows, a table the view
// does not cover, a HAVING side that unfolds to arithmetic, an auxiliary
// Va view.
func TestDropFold(t *testing.T) {
	views := map[string]string{
		"VCust":   `SELECT Cust_Id, SUM(Charge), COUNT(Charge), MAX(Charge) FROM Calls GROUP BY Cust_Id`,
		"VPM":     `SELECT Plan_Id, Month, Year, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Plan_Id, Month, Year`,
		"VCharge": `SELECT Cust_Id, Charge, COUNT(Charge) FROM Calls GROUP BY Cust_Id, Charge`,
	}
	rewriters := map[bool]*Rewriter{false: newRewriter(t, views, Options{}), true: newRewriter(t, views, Options{PaperFaithful: true})}
	for _, c := range []struct {
		view, sql string
		want      string // the select-project; "" when DropFold changes nothing
		faithful  bool
	}{
		{"VCust", `SELECT Cust_Id, SUM(Charge), MAX(Charge) FROM Calls GROUP BY Cust_Id`,
			`SELECT Cust_Id, sum_Charge, max_Charge FROM VCust`, false},
		{"VCust", `SELECT Cust_Id, AVG(Charge), COUNT(Charge) FROM Calls GROUP BY Cust_Id HAVING SUM(Charge) > 10 AND MAX(Charge) <= 99`,
			`SELECT Cust_Id, sum_Charge / count_Charge, count_Charge FROM VCust WHERE sum_Charge > 10 AND max_Charge <= 99`, false},
		{"VPM", `SELECT Plan_Id, Month, SUM(Charge) FROM Calls WHERE Year = 1995 GROUP BY Plan_Id, Month`,
			`SELECT Plan_Id, Month, sum_Charge FROM VPM WHERE Year = 1995`, false},
		// Months coalesce into a plan's group.
		{"VPM", `SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id`, "", false},
		// Calling_Plans is not the view's: its rows fan each view row out.
		{"VPM", `SELECT Calls.Plan_Id, Month, Year, SUM(Charge) FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id GROUP BY Calls.Plan_Id, Month, Year`, "", false},
		// AVG unfolds to S/N, which no WHERE conjunct compares.
		{"VCust", `SELECT Cust_Id, SUM(Charge) FROM Calls GROUP BY Cust_Id HAVING AVG(Charge) > 3`, "", false},
		// Paper-faithful SUM over a bare view column joins an auxiliary Va.
		{"VCharge", `SELECT Cust_Id, Charge, SUM(Charge) FROM Calls GROUP BY Cust_Id, Charge`, "", true},
	} {
		rw := rewriters[c.faithful]
		var r *Rewriting
		for _, cand := range mustRewritings(t, rw, buildQ(t, rw, c.sql)) {
			if len(cand.Used) == 1 && cand.Used[0] == c.view {
				r = cand
			}
		}
		if r == nil {
			t.Fatalf("%s: no rewriting over %s", c.sql, c.view)
		}
		before := r.Query.SQL()
		changed := r.DropFold()
		got := r.Query.SQL()
		switch {
		case c.want == "" && (changed || got != before):
			t.Errorf("%s: DropFold changed %s into %s", c.sql, before, got)
		case c.want != "" && (!changed || got != c.want):
			t.Errorf("%s: DropFold = %v, %s; want %s", c.sql, changed, got, c.want)
		case changed && r.DropFold():
			t.Errorf("%s: a second DropFold reported a change", c.sql)
		}
	}
}
