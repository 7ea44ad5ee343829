package core

// Empirical probe of the completeness direction of Theorems 3.1/3.2:
// queries are GENERATED FROM a view — the view's tables and conditions
// plus extra conditions over its exposed columns, grouped by exposed
// columns — so a rewriting provably exists. For the equality-only
// fragment the theorems say the conditions are necessary and the
// procedure complete, so the rewriter must find it every time. (The
// soundness direction is covered by the fuzz suites; this test guards
// against the conditions being accidentally too strict.)

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// genViewAndDerivedQuery builds a random conjunctive view over R1 (and
// optionally R2) and a query that is by construction answerable from it.
func genViewAndDerivedQuery(rng *rand.Rand) (viewSQL, querySQL string) {
	withR2 := rng.Intn(2) == 0

	// View: expose a random nonempty subset of columns; enforce some
	// equality conditions.
	r1cols := []string{"A", "B", "C", "D"}
	rng.Shuffle(len(r1cols), func(i, j int) { r1cols[i], r1cols[j] = r1cols[j], r1cols[i] })
	exposed := append([]string{}, r1cols[:2+rng.Intn(2)]...)
	var vconds []string
	if rng.Intn(2) == 0 {
		// Equality between two R1 columns (possibly unexposed).
		vconds = append(vconds, fmt.Sprintf("%s = %s", r1cols[2], r1cols[3]))
	}
	from := "R1"
	if withR2 {
		from = "R1, R2"
		vconds = append(vconds, fmt.Sprintf("%s = E", exposed[0]))
		if rng.Intn(2) == 0 {
			exposed = append(exposed, "F")
		}
	}
	viewSQL = "SELECT " + strings.Join(exposed, ", ") + " FROM " + from
	if len(vconds) > 0 {
		viewSQL += " WHERE " + strings.Join(vconds, " AND ")
	}

	// Query: same FROM and conditions, plus extra equality conditions
	// over exposed columns and constants, grouped by an exposed column
	// with aggregates over exposed columns.
	qconds := append([]string{}, vconds...)
	if rng.Intn(2) == 0 {
		qconds = append(qconds, fmt.Sprintf("%s = %d", exposed[rng.Intn(len(exposed))], rng.Intn(3)))
	}
	if len(exposed) >= 2 && rng.Intn(3) == 0 {
		qconds = append(qconds, fmt.Sprintf("%s = %s", exposed[0], exposed[1]))
	}
	group := exposed[rng.Intn(len(exposed))]
	aggCol := exposed[rng.Intn(len(exposed))]
	fn := []string{"SUM", "COUNT", "MIN", "MAX"}[rng.Intn(4)]
	querySQL = fmt.Sprintf("SELECT %s, %s(%s) FROM %s", group, fn, aggCol, from)
	if len(qconds) > 0 {
		querySQL += " WHERE " + strings.Join(qconds, " AND ")
	}
	querySQL += " GROUP BY " + group
	return viewSQL, querySQL
}

func TestCompletenessOnDerivedQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		viewSQL, querySQL := genViewAndDerivedQuery(rng)
		rw := newRewriter(t, map[string]string{"V": viewSQL}, Options{})
		q, err := parseQ(rw, querySQL)
		if err != nil {
			t.Fatalf("derived query must parse: %s: %v", querySQL, err)
		}
		rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "V"))
		if len(rws) == 0 {
			t.Fatalf("completeness violation: the query is answerable from the view by construction\n view:  %s\n query: %s",
				viewSQL, querySQL)
		}
		// And of course the found rewriting must be correct.
		for seed := int64(0); seed < 2; seed++ {
			verify(t, rw, q, rws[0], r1r2DB(seed*13+int64(trial)))
		}
	}
}

// The same probe for aggregation views: queries at the view's exact
// granularity or coarser, with aggregates the view can supply.
func TestCompletenessOnDerivedAggQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(778))
	trials := 200
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		groups := [][]string{{"A", "B"}, {"A", "B", "C"}}[rng.Intn(2)]
		aggCol := "D"
		viewSQL := fmt.Sprintf("SELECT %s, SUM(%s), MIN(%s), MAX(%s), COUNT(%s) FROM R1 GROUP BY %s",
			strings.Join(groups, ", "), aggCol, aggCol, aggCol, aggCol, strings.Join(groups, ", "))

		// Query: group by a subset of the view's groups, aggregate either
		// the view's aggregated column or one of its grouping columns.
		qGroups := groups[:1+rng.Intn(len(groups))]
		fn := []string{"SUM", "COUNT", "MIN", "MAX", "AVG"}[rng.Intn(5)]
		target := aggCol
		if rng.Intn(3) == 0 {
			target = groups[len(groups)-1] // a grouping column of the view
		}
		querySQL := fmt.Sprintf("SELECT %s, %s(%s) FROM R1 GROUP BY %s",
			strings.Join(qGroups, ", "), fn, target, strings.Join(qGroups, ", "))

		rw := newRewriter(t, map[string]string{"V": viewSQL}, Options{})
		q, err := parseQ(rw, querySQL)
		if err != nil {
			t.Fatalf("derived query must parse: %s: %v", querySQL, err)
		}
		rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "V"))
		if len(rws) == 0 {
			t.Fatalf("aggregation-view completeness violation:\n view:  %s\n query: %s", viewSQL, querySQL)
		}
		for seed := int64(0); seed < 2; seed++ {
			verify(t, rw, q, rws[0], r1r2DB(seed*7+int64(trial)))
		}
	}
}
