package core

// Randomized "fuzz" sweep: generate random view/query pairs over the
// R1/R2 schema, enumerate all rewritings, and verify each one is
// multiset-equivalent on random databases. Unlike the hand-picked corpus
// in core_test.go this explores the cross product of clause shapes, so
// interaction bugs between conditions (C2' x residual x HAVING x
// aggregate plans) surface.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"aggview/internal/engine"
	"aggview/internal/ir"
)

// genSpec describes one generated query or view.
type genSpec struct {
	sql string
}

// genConjView emits a random conjunctive view over R1 (and sometimes
// R2).
func genConjView(rng *rand.Rand) genSpec {
	cols := []string{"A", "B", "C", "D"}
	rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	keep := cols[:1+rng.Intn(3)]
	var conds []string
	if rng.Intn(2) == 0 {
		conds = append(conds, fmt.Sprintf("%s = %d", cols[3], rng.Intn(3)))
	}
	if rng.Intn(3) == 0 {
		conds = append(conds, "A = B")
	}
	sql := "SELECT " + strings.Join(keep, ", ") + " FROM R1"
	if len(conds) > 0 {
		sql += " WHERE " + strings.Join(conds, " AND ")
	}
	return genSpec{sql: sql}
}

// genAggView emits a random aggregation view over R1.
func genAggView(rng *rand.Rand) genSpec {
	groups := [][]string{{"A"}, {"A", "B"}, {"A", "B", "C"}, {"B", "C"}}[rng.Intn(4)]
	aggCol := []string{"C", "D"}[rng.Intn(2)]
	aggs := []string{}
	if rng.Intn(2) == 0 {
		aggs = append(aggs, fmt.Sprintf("SUM(%s)", aggCol))
	}
	if rng.Intn(2) == 0 {
		aggs = append(aggs, fmt.Sprintf("MIN(%s)", aggCol), fmt.Sprintf("MAX(%s)", aggCol))
	}
	aggs = append(aggs, fmt.Sprintf("COUNT(%s)", aggCol)) // keep usable often
	var conds []string
	if rng.Intn(3) == 0 {
		conds = append(conds, fmt.Sprintf("D = %d", rng.Intn(3)))
	}
	sql := "SELECT " + strings.Join(groups, ", ") + ", " + strings.Join(aggs, ", ") + " FROM R1"
	if len(conds) > 0 {
		sql += " WHERE " + strings.Join(conds, " AND ")
	}
	sql += " GROUP BY " + strings.Join(groups, ", ")
	return genSpec{sql: sql}
}

// genQuery emits a random aggregation query over R1 (optionally joined
// with R2) compatible enough with the generated views that rewritings
// occur regularly.
func genQuery(rng *rand.Rand) genSpec {
	groups := [][]string{{"A"}, {"A", "B"}, {"B"}}[rng.Intn(3)]
	fn := []string{"SUM", "COUNT", "MIN", "MAX", "AVG"}[rng.Intn(5)]
	aggCol := []string{"C", "D"}[rng.Intn(2)]
	withR2 := rng.Intn(3) == 0
	var conds []string
	if rng.Intn(2) == 0 {
		conds = append(conds, fmt.Sprintf("D = %d", rng.Intn(3)))
	}
	if withR2 && rng.Intn(2) == 0 {
		conds = append(conds, "A = E")
	}
	sel := strings.Join(groups, ", ") + fmt.Sprintf(", %s(%s)", fn, aggCol)
	if withR2 && rng.Intn(2) == 0 {
		sel = strings.Join(groups, ", ") + fmt.Sprintf(", %s(F)", fn)
	}
	from := "R1"
	if withR2 {
		from = "R1, R2"
	}
	sql := "SELECT " + sel + " FROM " + from
	if len(conds) > 0 {
		sql += " WHERE " + strings.Join(conds, " AND ")
	}
	sql += " GROUP BY " + strings.Join(groups, ", ")
	if rng.Intn(3) == 0 {
		sql += fmt.Sprintf(" HAVING %s(%s) > %d", fn, aggCol, rng.Intn(4))
	}
	return genSpec{sql: sql}
}

func TestFuzzRewritingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	trials := 400
	if testing.Short() {
		trials = 80
	}
	produced := 0
	for trial := 0; trial < trials; trial++ {
		var vs genSpec
		if rng.Intn(2) == 0 {
			vs = genConjView(rng)
		} else {
			vs = genAggView(rng)
		}
		qs := genQuery(rng)

		rw := newRewriter(t, map[string]string{"V": vs.sql}, Options{})
		q, err := parseQ(rw, qs.sql)
		if err != nil {
			t.Fatalf("generated query does not parse: %s: %v", qs.sql, err)
		}
		rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "V"))
		produced += len(rws)
		for _, r := range rws {
			for seed := int64(0); seed < 3; seed++ {
				verifyFuzz(t, rw, q, r, r1r2DB(seed*101+int64(trial)), vs.sql, qs.sql)
			}
		}
	}
	if produced < trials/10 {
		t.Fatalf("fuzzer produced too few rewritings to be meaningful: %d over %d trials", produced, trials)
	}
	t.Logf("fuzz: %d rewritings verified over %d trials", produced, trials)
}

// TestFuzzPaperFaithful repeats the sweep with the literal constructions
// enabled: whatever the guarded Va path emits must also be equivalent.
func TestFuzzPaperFaithful(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 200
	if testing.Short() {
		trials = 50
	}
	produced := 0
	for trial := 0; trial < trials; trial++ {
		vs := genAggView(rng)
		qs := genQuery(rng)
		rw := newRewriter(t, map[string]string{"V": vs.sql}, Options{PaperFaithful: true})
		q, err := parseQ(rw, qs.sql)
		if err != nil {
			t.Fatalf("generated query does not parse: %s: %v", qs.sql, err)
		}
		rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "V"))
		produced += len(rws)
		for _, r := range rws {
			for seed := int64(0); seed < 3; seed++ {
				verifyFuzz(t, rw, q, r, r1r2DB(seed*53+int64(trial)), vs.sql, qs.sql)
			}
		}
	}
	t.Logf("paper-faithful fuzz: %d rewritings verified over %d trials", produced, trials)
}

func parseQ(rw *Rewriter, sql string) (q *ir.Query, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return ir.MustBuild(sql, ir.MultiSource{tables(), rw.Views}), nil
}

func verifyFuzz(t *testing.T, rw *Rewriter, q *ir.Query, r *Rewriting, db *engine.DB, viewSQL, querySQL string) {
	ctx := context.Background()
	t.Helper()
	reg := ir.NewRegistry()
	for _, v := range rw.Views.All() {
		_ = reg.Add(v)
	}
	for _, v := range r.Aux {
		_ = reg.Add(v)
	}
	want, err := engine.NewEvaluator(db, reg).ExecContext(ctx, q)
	if err != nil {
		t.Fatalf("original failed: %v\n  view:  %s\n  query: %s", err, viewSQL, querySQL)
	}
	got, err := engine.NewEvaluator(db, reg).ExecContext(ctx, r.Query)
	if err != nil {
		t.Fatalf("rewriting failed: %v\n  view:  %s\n  query: %s\n  Q': %s", err, viewSQL, querySQL, r.SQL())
	}
	// AVG and SUM-via-AVG rewritings may produce floats where the
	// original produced ints; compare with the float-aware bag equality.
	if !engine.ResultsEqualBag(want, got) {
		t.Fatalf("NOT EQUIVALENT\n  view:  %s\n  query: %s\n  Q':    %s\n  want:\n%s\n  got:\n%s",
			viewSQL, querySQL, r.SQL(), want.Sorted(), got.Sorted())
	}
}
