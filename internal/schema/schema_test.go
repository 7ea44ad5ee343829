package schema

import (
	"testing"
)

func telco(t *testing.T) *Catalog {
	t.Helper()
	c := NewCatalog()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.AddTable(&Table{
		Name:    "Customer",
		Columns: []string{"Cust_Id", "Cust_Name", "Area_Code", "Phone_Number"},
		Keys:    [][]string{{"Cust_Id"}},
	}))
	must(c.AddTable(&Table{
		Name:    "Calling_Plans",
		Columns: []string{"Plan_Id", "Plan_Name"},
		Keys:    [][]string{{"Plan_Id"}},
	}))
	must(c.AddTable(&Table{
		Name:    "Calls",
		Columns: []string{"Call_Id", "Cust_Id", "Plan_Id", "Day", "Month", "Year", "Charge"},
		Keys:    [][]string{{"Call_Id"}},
	}))
	return c
}

func TestLookupCaseInsensitive(t *testing.T) {
	c := telco(t)
	if _, ok := c.Table("calls"); !ok {
		t.Error("lower-case lookup failed")
	}
	if _, ok := c.Table("CALLS"); !ok {
		t.Error("upper-case lookup failed")
	}
	if _, ok := c.Table("nope"); ok {
		t.Error("unknown table should not resolve")
	}
}

func TestAddTableValidation(t *testing.T) {
	cases := []struct {
		name string
		tbl  *Table
	}{
		{"empty name", &Table{Columns: []string{"A"}}},
		{"no columns", &Table{Name: "T"}},
		{"dup column", &Table{Name: "T", Columns: []string{"A", "a"}}},
		{"empty key", &Table{Name: "T", Columns: []string{"A"}, Keys: [][]string{{}}}},
		{"bad key col", &Table{Name: "T", Columns: []string{"A"}, Keys: [][]string{{"B"}}}},
		{"degenerate fd", &Table{Name: "T", Columns: []string{"A"}, FDs: []FD{{From: nil, To: []string{"A"}}}}},
		{"bad fd col", &Table{Name: "T", Columns: []string{"A"}, FDs: []FD{{From: []string{"A"}, To: []string{"B"}}}}},
	}
	for _, tc := range cases {
		c := NewCatalog()
		if err := c.AddTable(tc.tbl); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	c := NewCatalog()
	if err := c.AddTable(&Table{Name: "T", Columns: []string{"A"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(&Table{Name: "t", Columns: []string{"A"}}); err == nil {
		t.Error("duplicate table (case-insensitive) should fail")
	}
}

func TestColumnIndex(t *testing.T) {
	c := telco(t)
	calls, _ := c.Table("Calls")
	if got := calls.ColumnIndex("plan_id"); got != 2 {
		t.Errorf("ColumnIndex(plan_id) = %d, want 2", got)
	}
	if got := calls.ColumnIndex("missing"); got != -1 {
		t.Errorf("ColumnIndex(missing) = %d, want -1", got)
	}
}

func TestTablesOrder(t *testing.T) {
	c := telco(t)
	tabs := c.Tables()
	if len(tabs) != 3 || tabs[0].Name != "Customer" || tabs[2].Name != "Calls" {
		t.Errorf("Tables() should preserve registration order, got %v", tabs)
	}
}

// TestKeysTakeTheDeclaredSpelling: KEY and FD columns are stored as the
// column list spells them, so they compare exactly with the columns a
// query binds; a lookup under any spelling allocates nothing.
func TestKeysTakeTheDeclaredSpelling(t *testing.T) {
	c := NewCatalog()
	tbl := &Table{Name: "Calls", Columns: []string{"Call_Id", "Plan_Id"},
		Keys: [][]string{{"CALL_ID"}}, FDs: []FD{{From: []string{"call_id"}, To: []string{"plan_ID"}}}}
	if err := c.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Table("CALLS")
	if got.Keys[0][0] != "Call_Id" || got.FDs[0].From[0] != "Call_Id" || got.FDs[0].To[0] != "Plan_Id" {
		t.Errorf("keys %v, FDs %v: want the column list's spelling", got.Keys, got.FDs)
	}
	if name, _, ok := c.Resolve("calls"); !ok || name != "Calls" {
		t.Errorf("Resolve(calls) = %q, %v; want the declared Calls", name, ok)
	}
	if n := testing.AllocsPerRun(100, func() { c.Table("cALLS") }); n != 0 {
		t.Errorf("a lookup under another spelling allocates %v times", n)
	}
}
