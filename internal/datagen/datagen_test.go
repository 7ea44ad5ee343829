package datagen_test

import (
	"reflect"
	"strings"
	"testing"

	"aggview"
	"aggview/internal/datagen"
	"aggview/internal/value"
)

// rows returns the generated rows of one table of d.
func rows(t *testing.T, d datagen.Data, table string) [][]value.Value {
	t.Helper()
	for _, tab := range d.Tables {
		if tab.Name == table {
			return tab.Rows
		}
	}
	t.Fatalf("no table %s", table)
	return nil
}

func TestTelcoShape(t *testing.T) {
	d := datagen.Telco(datagen.TelcoConfig{Calls: 1000, Seed: 1})
	calls := rows(t, d, "Calls")
	if len(calls) != 1000 {
		t.Fatal("Calls rows wrong")
	}
	if len(rows(t, d, "Calling_Plans")) != 10 {
		t.Fatal("Calling_Plans rows wrong")
	}
	if len(rows(t, d, "Customer")) != 100 {
		t.Fatal("Customer rows wrong")
	}
	// Every call must reference an existing plan and customer and a
	// valid date.
	for _, row := range calls {
		if p := row[2].AsInt(); p < 0 || p >= 10 {
			t.Fatalf("call references plan %d", p)
		}
		if c := row[1].AsInt(); c < 0 || c >= 100 {
			t.Fatalf("call references customer %d", c)
		}
		if m := row[4].AsInt(); m < 1 || m > 12 {
			t.Fatalf("bad month %d", m)
		}
		if y := row[5].AsInt(); y < 1994 || y > 1996 {
			t.Fatalf("bad year %d", y)
		}
	}
}

func TestTelcoZipfSkew(t *testing.T) {
	counts := map[int64]int{}
	for _, row := range rows(t, datagen.Telco(datagen.TelcoConfig{Calls: 20000, Seed: 3}), "Calls") {
		counts[row[2].AsInt()]++
	}
	// Zipf: the most popular plan should dominate the least popular one.
	max, min := 0, 1<<30
	for _, c := range counts {
		if c > max {
			max = c
		}
		if c < min {
			min = c
		}
	}
	if max < 4*min {
		t.Errorf("expected skewed plan traffic, got max=%d min=%d", max, min)
	}
}

func TestTelcoDeterministic(t *testing.T) {
	a := datagen.Telco(datagen.TelcoConfig{Calls: 500, Seed: 42})
	b := datagen.Telco(datagen.TelcoConfig{Calls: 500, Seed: 42})
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed must reproduce the same data")
	}
}

func TestR1R2(t *testing.T) {
	d := datagen.R1R2(datagen.R1R2Config{R1Rows: 100, R2Rows: 50, Domain: 3, Seed: 9})
	if len(rows(t, d, "R1")) != 100 || len(rows(t, d, "R2")) != 50 {
		t.Fatal("row counts")
	}
	for _, tab := range d.Tables {
		for _, row := range tab.Rows {
			for _, v := range row {
				if v.AsInt() < 0 || v.AsInt() >= 3 {
					t.Fatalf("domain violation: %v", v)
				}
			}
		}
	}
}

func TestChronicle(t *testing.T) {
	d := datagen.Chronicle(datagen.ChronicleConfig{Accounts: 10, Txns: 500, Seed: 2})
	txns := rows(t, d, "Txns")
	if len(txns) != 500 {
		t.Fatal("txn count")
	}
	if len(rows(t, d, "Accounts")) != 10 {
		t.Fatal("account count")
	}
	for _, row := range txns {
		if day := row[2].AsInt(); day < 1 || day > 30 {
			t.Fatalf("bad day %d", day)
		}
		if a := row[1].AsInt(); a < 0 || a >= 10 {
			t.Fatalf("bad account %d", a)
		}
	}
}

// TestGeneratedKeysHold loads every generator's DDL and rows into a
// System and checks each declared key on the loaded rows: no key value
// may repeat. R1R2's random rows repeat values in every column, so they
// are declared without keys; the keyed micro-schema holds only
// Example51's three rows.
func TestGeneratedKeysHold(t *testing.T) {
	r1r2 := datagen.R1R2(datagen.R1R2Config{R1Rows: 200, R2Rows: 50, Seed: 9})
	if r1r2.DDL != datagen.R1R2DDL {
		t.Fatal("R1R2's random rows must load under the unkeyed DDL")
	}
	if n := len(rows(t, datagen.Example51(true), "R1")); n != 3 {
		t.Fatalf("Example51 holds %d R1 rows, want 3", n)
	}
	for _, c := range []struct {
		name string
		d    datagen.Data
		keys int
	}{
		{"telco", datagen.Telco(datagen.TelcoConfig{Calls: 5000, Seed: 1}), 3},
		{"chronicle", datagen.Chronicle(datagen.ChronicleConfig{Accounts: 200, Txns: 5000, Seed: 9}), 2},
		{"r1r2", r1r2, 0},
		{"example51", datagen.Example51(true), 2},
	} {
		s := aggview.New()
		if err := c.d.Load(t.Context(), s); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		keys := 0
		for _, tab := range s.Catalog.Tables() {
			for _, key := range tab.Keys {
				keys++
				cols := strings.Join(key, ", ")
				sql := "SELECT " + cols + ", COUNT(*) FROM " + tab.Name + " GROUP BY " + cols + " HAVING COUNT(*) > 1"
				res, err := s.QueryContext(t.Context(), sql)
				if err != nil {
					t.Fatalf("%s: %s: %v", c.name, sql, err)
				}
				if res.Len() != 0 {
					t.Errorf("%s: key (%s) of %s repeats:\n%s", c.name, cols, tab.Name, res.Sorted())
				}
			}
		}
		if keys != c.keys {
			t.Errorf("%s declares %d keys, want %d", c.name, keys, c.keys)
		}
	}
}
