package cost

import (
	"testing"

	"aggview/internal/ir"
)

func src() ir.MapSource {
	return ir.MapSource{
		"Calls":         {"Call_Id", "Plan_Id", "Year", "Charge"},
		"Calling_Plans": {"Plan_Id", "Plan_Name"},
	}
}

// rows is an Estimator.Rows over fixed counts.
func rows(counts map[string]int) func(string) (int, bool) {
	return func(name string) (int, bool) {
		n, ok := counts[name]
		return n, ok
	}
}

func TestViewBeatsBaseTables(t *testing.T) {
	reg := ir.NewRegistry()
	vq := ir.MustBuild("SELECT Plan_Id, Year, SUM(Charge) FROM Calls GROUP BY Plan_Id, Year", src())
	v, err := ir.NewViewDef("V1", vq)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(v); err != nil {
		t.Fatal(err)
	}
	est := &Estimator{Rows: rows(map[string]int{"Calls": 1e6, "Calling_Plans": 10, "V1": 120}), Views: reg}

	full := ir.MultiSource{src(), reg}
	base := ir.MustBuild("SELECT Plan_Id, SUM(Charge) FROM Calls WHERE Year = 1995 GROUP BY Plan_Id", src())
	view := ir.MustBuild("SELECT Plan_Id, SUM(sum_Charge) FROM V1 WHERE Year = 1995 GROUP BY Plan_Id", full)
	cb, cv := est.Estimate(base), est.Estimate(view)
	if cv >= cb {
		t.Errorf("view plan should be cheaper: view=%f base=%f", cv, cb)
	}
}

func TestUnmaterializedViewEstimatedFromDefinition(t *testing.T) {
	reg := ir.NewRegistry()
	vq := ir.MustBuild("SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id", src())
	v, _ := ir.NewViewDef("V2", vq)
	_ = reg.Add(v)
	est := &Estimator{Rows: rows(map[string]int{"Calls": 1e6}), Views: reg}
	full := ir.MultiSource{src(), reg}
	q := ir.MustBuild("SELECT Plan_Id, sum_Charge FROM V2", full)
	c := est.Estimate(q)
	if c <= 0 {
		t.Fatalf("cost must be positive: %f", c)
	}
	// Grouped definition: estimate should be far below the base table.
	if c >= 1e6 {
		t.Errorf("grouped view estimate too large: %f", c)
	}
}

func TestSelectivities(t *testing.T) {
	est := &Estimator{Rows: rows(map[string]int{"Calls": 1000, "Calling_Plans": 10})}
	join := ir.MustBuild("SELECT Call_Id FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id", src())
	cross := ir.MustBuild("SELECT Call_Id FROM Calls, Calling_Plans", src())
	if est.Estimate(join) >= est.Estimate(cross) {
		t.Error("equality join must be estimated below a cross product")
	}
	filtered := ir.MustBuild("SELECT Call_Id FROM Calls WHERE Year = 1995", src())
	scan := ir.MustBuild("SELECT Call_Id FROM Calls", src())
	if est.Estimate(filtered) >= est.Estimate(scan) {
		t.Error("filter must reduce estimated cost")
	}
	rng := ir.MustBuild("SELECT Call_Id FROM Calls WHERE Year < 1995", src())
	neq := ir.MustBuild("SELECT Call_Id FROM Calls WHERE Year <> 1995", src())
	if est.Estimate(filtered) >= est.Estimate(rng) || est.Estimate(rng) >= est.Estimate(neq) {
		t.Error("selectivity ordering eq < range < neq violated")
	}
}

func TestUnknownSourceDefault(t *testing.T) {
	est := &Estimator{Rows: rows(nil)}
	q := ir.MustBuild("SELECT Call_Id FROM Calls", src())
	if c := est.Estimate(q); c <= 0 {
		t.Errorf("unknown sources need a neutral default, got %f", c)
	}
}

func TestGlobalAggregateSingleRow(t *testing.T) {
	reg := ir.NewRegistry()
	vq := ir.MustBuild("SELECT SUM(Charge) FROM Calls", src())
	v, _ := ir.NewViewDef("VG", vq)
	_ = reg.Add(v)
	est := &Estimator{Rows: rows(map[string]int{"Calls": 1e6}), Views: reg}
	if rows := est.outputRows(vq, 0); rows != 1 {
		t.Errorf("global aggregate output should be 1 row, got %f", rows)
	}
}
