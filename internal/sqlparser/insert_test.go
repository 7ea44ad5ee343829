package sqlparser

import (
	"math"
	"testing"

	"aggview/internal/value"
)

func TestParseInsert(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE TABLE T(A, B, C);
		INSERT INTO T VALUES (1, 2.5, 'x'), (-3, -0.5, 'y');
		SELECT A FROM T;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("expected 3 statements, got %d", len(stmts))
	}
	ins, ok := stmts[1].(*Insert)
	if !ok {
		t.Fatalf("statement 1 is %T, want *Insert", stmts[1])
	}
	if ins.Table != "T" || len(ins.Rows) != 2 {
		t.Fatalf("bad insert: table=%s rows=%d", ins.Table, len(ins.Rows))
	}
	want := [][]value.Value{
		{value.Int(1), value.Float(2.5), value.Str("x")},
		{value.Int(-3), value.Float(-0.5), value.Str("y")},
	}
	for i, row := range want {
		for j, v := range row {
			if ins.Rows[i][j].Key() != v.Key() {
				t.Fatalf("row %d col %d = %s, want %s", i, j, ins.Rows[i][j], v)
			}
		}
	}

	// Round trip: rendering re-parses to the same rows.
	again, err := ParseScript(ins.SQL())
	if err != nil {
		t.Fatalf("re-parse %q: %v", ins.SQL(), err)
	}
	ins2 := again[0].(*Insert)
	if len(ins2.Rows) != len(ins.Rows) {
		t.Fatalf("round trip lost rows: %d vs %d", len(ins2.Rows), len(ins.Rows))
	}
}

func TestParseInsertErrors(t *testing.T) {
	bad := []string{
		"INSERT T VALUES (1)",             // missing INTO
		"INSERT INTO T (1)",               // missing VALUES
		"INSERT INTO T VALUES (1), (1,2)", // mixed widths
		"INSERT INTO T VALUES (A)",        // non-literal
		"INSERT INTO T VALUES (-'x')",     // negated string
		"INSERT INTO T VALUES ()",         // empty tuple
		"INSERT INTO T VALUES (1e)",       // no digit after the e: 1, then e
		"INSERT INTO T VALUES (1e+)",
	}
	for _, src := range bad {
		if _, err := ParseScript(src); err == nil {
			t.Errorf("ParseScript(%q): expected error", src)
		}
	}
}

// TestLiteralsRoundTrip renders values as INSERT literals and parses them
// back: each must return as the same value, of the same kind, NaN and
// ±Inf included, and math.MinInt64, whose literal is read whole (its
// magnitude alone is no int64).
func TestLiteralsRoundTrip(t *testing.T) {
	vals := []value.Value{
		value.Str("it's"), value.Str("''"), value.Str(""), value.Str("x\x00sy"), value.Str("a\nb"),
		value.Float(1), value.Float(-1), value.Float(1e16), value.Float(-1e16), value.Float(1e-07),
		value.Float(math.Copysign(0, -1)), value.Float(0), value.Float(2.5), value.Float(123456789),
		value.Float(math.MaxFloat64), value.Float(5e-324),
		value.Float(math.NaN()), value.Float(math.Inf(1)), value.Float(math.Inf(-1)),
		value.Int(0), value.Int(-7), value.Int(math.MaxInt64), value.Int(math.MinInt64 + 1), value.Int(math.MinInt64),
		value.Bool(true), value.Bool(false),
	}
	ins := &Insert{Table: "T"}
	for _, v := range vals {
		ins.Rows = append(ins.Rows, []value.Value{v})
	}
	stmts, err := ParseScript(ins.SQL())
	if err != nil {
		t.Fatalf("re-parse %q: %v", ins.SQL(), err)
	}
	for i, row := range stmts[0].(*Insert).Rows {
		if got, want := row[0], vals[i]; got.Kind() != want.Kind() || !value.KeyEqual(got, want) {
			t.Errorf("%s read back as %s (%s), want %s", want, got, got.Kind(), want.Kind())
		}
	}
}

func TestNumberExponents(t *testing.T) {
	cases := map[string]value.Value{
		"1e+16": value.Float(1e16), "1e-07": value.Float(1e-7), "2E5": value.Float(2e5), "1.5e3": value.Float(1500),
	}
	for src, want := range cases {
		stmts, err := ParseScript("INSERT INTO T VALUES (" + src + ")")
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := stmts[0].(*Insert).Rows[0][0]; got.Kind() != value.KindFloat || !value.KeyEqual(got, want) {
			t.Errorf("%s read as %s (%s)", src, got, got.Kind())
		}
	}
}
