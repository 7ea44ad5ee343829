package core

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"aggview/internal/aggreason"
	"aggview/internal/constraints"
	"aggview/internal/ir"
)

// TestCanonicalKeyCollisions feeds canonicalKey adversarial near-miss
// pairs — queries crafted to look alike under naive normalization — and
// asserts distinct candidates never merge. A collision here would make
// the search's dedup drop a genuinely different rewriting.
func TestCanonicalKeyCollisions(t *testing.T) {
	src := tables()
	cases := []struct {
		name string
		a, b string
	}{
		{
			"swapped select columns",
			"SELECT A, B FROM R1",
			"SELECT B, A FROM R1",
		},
		{
			"swapped aggregate arguments",
			"SELECT A, SUM(B), SUM(C) FROM R1 GROUP BY A",
			"SELECT A, SUM(C), SUM(B) FROM R1 GROUP BY A",
		},
		{
			"renamed relation, same attribute shape",
			"SELECT A, B FROM R1 WHERE A = 5",
			"SELECT E, F FROM R2 WHERE E = 5",
		},
		{
			"reordered non-equivalent conjuncts",
			"SELECT A FROM R1 WHERE A < B AND C = 5",
			"SELECT A FROM R1 WHERE A < C AND B = 5",
		},
		{
			"flipped inequality is not symmetric across columns",
			"SELECT A FROM R1 WHERE A < B",
			"SELECT A FROM R1 WHERE B < A",
		},
		{
			"constant moved between conjuncts",
			"SELECT A FROM R1 WHERE B = 5 AND C = 7",
			"SELECT A FROM R1 WHERE B = 7 AND C = 5",
		},
		{
			"group-by column differs",
			"SELECT A, COUNT(B) FROM R1 GROUP BY A",
			"SELECT D, COUNT(B) FROM R1 GROUP BY D",
		},
		{
			"having bound differs",
			"SELECT A, SUM(B) FROM R1 GROUP BY A HAVING SUM(B) > 10",
			"SELECT A, SUM(B) FROM R1 GROUP BY A HAVING SUM(B) > 11",
		},
		{
			"distinct flag differs",
			"SELECT A FROM R1",
			"SELECT DISTINCT A FROM R1",
		},
		{
			"self-join predicates target different occurrences",
			"SELECT r.A FROM R1 r, R1 s WHERE r.B = 5 AND s.C = 7",
			"SELECT r.A FROM R1 r, R1 s WHERE r.C = 7 AND s.B = 5",
		},
		{
			"join predicate connects different column pairs",
			"SELECT A, E FROM R1, R2 WHERE A = E AND B = 3",
			"SELECT A, E FROM R1, R2 WHERE B = E AND A = 3",
		},
	}
	for _, tc := range cases {
		qa := ir.MustBuild(tc.a, src)
		qb := ir.MustBuild(tc.b, src)
		ka, kb := canonicalKey(qa), canonicalKey(qb)
		if ka == kb {
			t.Errorf("%s: distinct queries share a canonical key\n a: %s\n b: %s\n key: %s", tc.name, tc.a, tc.b, ka)
		}
	}
}

// TestCanonicalKeyMergesEquivalents is the positive control: the
// reorderings canonicalKey exists to identify — FROM-clause order, WHERE
// conjunct order, flipped comparisons, equality chains with different
// spanning trees — must map to one key, or the search would enumerate
// duplicate rewritings.
func TestCanonicalKeyMergesEquivalents(t *testing.T) {
	src := tables()
	cases := []struct {
		name string
		a, b string
	}{
		{
			"FROM order",
			"SELECT A, E FROM R1, R2 WHERE A = E",
			"SELECT A, E FROM R2, R1 WHERE A = E",
		},
		{
			"WHERE conjunct order",
			"SELECT A FROM R1 WHERE B = 5 AND C = 7",
			"SELECT A FROM R1 WHERE C = 7 AND B = 5",
		},
		{
			"flipped comparison",
			"SELECT A FROM R1 WHERE A < B",
			"SELECT A FROM R1 WHERE B > A",
		},
		{
			"equality chain spanning trees",
			"SELECT A FROM R1 WHERE A = B AND B = C",
			"SELECT A FROM R1 WHERE A = C AND A = B",
		},
	}
	for _, tc := range cases {
		qa := ir.MustBuild(tc.a, src)
		qb := ir.MustBuild(tc.b, src)
		if canonicalKey(qa) != canonicalKey(qb) {
			t.Errorf("%s: equivalent queries got different keys\n a: %s\n b: %s", tc.name, tc.a, tc.b)
		}
	}
}

// referenceKey is the canonical key by its definition: permute the
// tables into canonical order, renumber every column reference
// accordingly, and render the reordered query with the closure of its
// own WHERE. canonicalKeyOf produces the same bytes without building
// the reordered query; plan-cache keys and search dedup depend on that.
func referenceKey(q *ir.Query) string {
	n := &ir.Query{Distinct: q.Distinct}
	oldToNew := make([]ir.ColID, q.NumCols())
	for _, oldIdx := range canonicalOrder(q) {
		t := q.Tables[oldIdx]
		attrs := make([]string, len(t.Cols))
		for pos, id := range t.Cols {
			attrs[pos] = q.Col(id).Attr
		}
		newIdx := n.AddTable(t.Source, "", attrs)
		for pos, id := range t.Cols {
			oldToNew[id] = n.Tables[newIdx].Cols[pos]
		}
	}
	remap := func(c ir.ColID) ir.ColID { return oldToNew[c] }
	for _, it := range q.Select {
		n.Select = append(n.Select, ir.SelectItem{Expr: ir.MapExprCols(it.Expr, remap), Alias: it.Alias})
	}
	for _, p := range q.Where {
		n.Where = append(n.Where, ir.MapPredCols(p, remap))
	}
	for _, g := range q.GroupBy {
		n.GroupBy = append(n.GroupBy, remap(g))
	}
	for _, h := range q.Having {
		n.Having = append(n.Having, ir.HPred{Op: h.Op, L: ir.MapExprCols(h.L, remap), R: ir.MapExprCols(h.R, remap)})
	}
	term := func(t constraints.Term) string {
		if t.IsConst {
			return keyEscape(t.C.String())
		}
		return keyEscape(n.Col(ir.ColID(t.V)).Name)
	}
	cl := constraints.Close(aggreason.WhereConj(n))
	var preds []string
	for _, at := range cl.Atoms() {
		s := term(at.L) + " " + keyEscape(at.Op.String()) + " " + term(at.R)
		if f := term(at.R) + " " + keyEscape(at.Op.Flip().String()) + " " + term(at.L); f < s {
			s = f
		}
		preds = append(preds, s)
	}
	if !cl.Sat() {
		preds = []string{"FALSE"}
	}
	sort.Strings(preds)
	groups := make([]string, len(n.GroupBy))
	for i, g := range n.GroupBy {
		groups[i] = keyEscape(n.Col(g).Name)
	}
	sort.Strings(groups)
	sel := make([]string, len(n.Select))
	for i, it := range n.Select {
		sel[i] = keyEscape(n.ExprSQLByName(it.Expr))
	}
	hav := make([]string, len(n.Having))
	for i, h := range n.Having {
		hav[i] = keyEscape(n.ExprSQLByName(h.L)) + " " + keyEscape(h.Op.String()) + " " + keyEscape(n.ExprSQLByName(h.R))
	}
	sort.Strings(hav)
	srcs := make([]string, len(n.Tables))
	for i, t := range n.Tables {
		srcs[i] = keyEscape(t.Source)
	}
	return fmt.Sprintf("D=%v S=%v F=%v W=%v G=%v H=%v", n.Distinct, sel, srcs, preds, groups, hav)
}

// TestCanonicalKeyMatchesReorderedRendering checks the key of every
// golden-case query and of every rewriting the search derives from it
// (multi-table FROM lists out of canonical order, repeated sources,
// unsatisfiable and HAVING-bearing queries among them) against the
// definition, and that a search handed the root's key finds the same
// rewritings.
func TestCanonicalKeyMatchesReorderedRendering(t *testing.T) {
	check := func(q *ir.Query) {
		t.Helper()
		if got, want := canonicalKey(q), referenceKey(q); got != want {
			t.Fatalf("%s\n got %s\nwant %s", q.SQL(), got, want)
		}
	}
	n := 0
	for _, gc := range goldenCases() {
		for _, sql := range gc.queries {
			rw := gc.rewriter(t)
			q := buildQ(t, rw, sql)
			check(q)
			rws, err := rw.RewritingsContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			// A search handed the root's key finds what one deriving it does.
			keyed, err := rw.SearchContext(context.Background(), q, canonicalKey(q))
			if err != nil {
				t.Fatal(err)
			}
			if len(keyed) != len(rws) {
				t.Fatalf("keyed search found %d rewritings, unkeyed %d, for %s", len(keyed), len(rws), q.SQL())
			}
			for i, r := range rws {
				if got, want := canonicalKey(keyed[i].Query), canonicalKey(r.Query); got != want {
					t.Fatalf("rewriting %d of %s: keyed search %q, unkeyed %q", i, q.SQL(), got, want)
				}
			}
			for _, r := range rws {
				check(r.Query)
				n++
			}
		}
	}
	check(ir.MustBuild("SELECT s.A, r.A FROM R2, R1 s, R1 r WHERE r.B = s.C AND E = s.D AND 3 < F", tables()))
	check(ir.MustBuild("SELECT A FROM R1 WHERE B < C AND C < B", tables()))
	if n == 0 {
		t.Fatal("no rewritings checked")
	}
}

// TestOpKeyNameIsEscaped holds the operator renderings opKeyName spells
// out to what keyEscape makes of each operator.
func TestOpKeyNameIsEscaped(t *testing.T) {
	for op := ir.OpEq; op <= ir.OpGeq; op++ {
		if got, want := opKeyName(op), keyEscape(op.String()); got != want {
			t.Errorf("opKeyName(%s) = %q, want %q", op, got, want)
		}
	}
}
