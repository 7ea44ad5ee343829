package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"aggview/internal/datagen"
	"aggview/internal/engine"
	"aggview/internal/value"
)

// GenOptions sizes the random instances.
type GenOptions struct {
	// MaxTables bounds the number of base tables (default 2; the second
	// table exists so join queries have something to join with).
	MaxTables int
	// MaxRows bounds the rows per table (default 24). Zero-row tables
	// are generated deliberately: empty inputs are a classic rewrite
	// edge (SUM over no tuples, groups that vanish).
	MaxRows int
	// Domain sizes the value domain (default 4): small domains force
	// the collisions grouping and join queries need.
	Domain int
	// MaxViews bounds the view count (default 2).
	MaxViews int
	// MultiChunkEvery, when positive, grows the anchor table of one
	// instance in that many past MaxRows until it spans at least three
	// of the engine's storage chunks, its first column ascending when it
	// holds ints (a chronicle's load order), so chunk sharing, chunk
	// skipping and cross-chunk selections see generated shapes too. Zero
	// (the default) draws nothing and leaves every instance as before.
	MultiChunkEvery int
}

func (o GenOptions) withDefaults() GenOptions {
	if o.MaxTables == 0 {
		o.MaxTables = 2
	}
	if o.MaxRows == 0 {
		o.MaxRows = 24
	}
	if o.Domain == 0 {
		o.Domain = 4
	}
	if o.MaxViews == 0 {
		o.MaxViews = 2
	}
	return o
}

// colKind is a generated column's type discipline.
type colKind int

const (
	kindInt colKind = iota
	kindFloat
	kindStr
)

// genCol is one generated column; names are globally unique across the
// schema so unqualified references are never ambiguous. An odd column
// draws the values value.Compare's rule and exact summation have to get
// right — a float one NaN, -0, 0, ±Inf, 2^53, 0.5, 1.0 and ±1e16, whose
// sums round and cancel, an int one now and then 2^53, 2^53+1 and
// -2^53-1. It groups, joins, filters, is deduplicated, takes MIN and MAX,
// and feeds SUM and AVG: a float SUM is its exact total rounded once,
// directly, through every rewriting and in a maintained view after any
// write history.
type genCol struct {
	name string
	kind colKind
	odd  bool
}

// genTable pairs a TableSpec with its column kinds.
type genTable struct {
	spec *TableSpec
	cols []genCol
}

func (t *genTable) colsOfKind(k colKind) []genCol {
	var out []genCol
	for _, c := range t.cols {
		if c.kind == k {
			out = append(out, c)
		}
	}
	return out
}

// Generate produces one random case of one query step: schema,
// contents, views biased toward the paper's shapes, and a query biased
// so the rewriter finds rewritings regularly (view-prefix WHERE clauses
// with expressible residuals, GROUP BY refining the view's grouping,
// aggregates over the view's aggregated columns). About one case in
// seven is generated with no anchoring at all, keeping fully random
// shapes in the mix.
func Generate(rng *rand.Rand, opt GenOptions) *Case {
	c, _ := generate(rng, opt.withDefaults())
	return c
}

// generate is Generate, opt's defaults applied, returning the internal
// table descriptors too, so GenerateWorkload and GenerateMutation can
// draw more queries and rows over the same schema.
func generate(rng *rand.Rand, opt GenOptions) (*Case, []*genTable) {
	c := &Case{}

	// --- schema and contents ---
	nTables := 1
	if opt.MaxTables > 1 && rng.Intn(2) == 0 {
		nTables = 2 + rng.Intn(opt.MaxTables-1)
	}
	nextName := 0
	var tables []*genTable
	for ti := 0; ti < nTables; ti++ {
		nCols := 2 + rng.Intn(4)
		var cols []genCol
		for ci := 0; ci < nCols; ci++ {
			name := colName(nextName)
			nextName++
			col := genCol{name: name, kind: kindInt}
			switch rng.Intn(8) {
			case 0:
				col.kind = kindFloat
			case 1:
				col.kind = kindStr
			case 2:
				col.kind, col.odd = kindFloat, true
			case 3:
				col.odd = true
			}
			cols = append(cols, col)
		}
		spec := &TableSpec{Name: fmt.Sprintf("T%d", ti)}
		for _, col := range cols {
			spec.Cols = append(spec.Cols, col.name)
		}
		keyed := rng.Intn(4) == 0
		if keyed {
			spec.Key = []string{cols[0].name}
		}
		nRows := rng.Intn(opt.MaxRows + 1)
		clustered := false
		if ti == 0 && opt.MultiChunkEvery > 0 && rng.Intn(opt.MultiChunkEvery) == 0 {
			nRows += engine.RowsSpanning(3)
			clustered = cols[0].kind == kindInt
		}
		gen := func(rng *rand.Rand, ci int) value.Value {
			return randomValue(rng, cols[ci], opt.Domain)
		}
		for r := 0; r < nRows; r++ {
			row := datagen.RandomRow(rng, nCols, gen)
			switch {
			case keyed:
				// Sequential key values keep the declared key honest.
				row[0] = value.Int(int64(r))
			case clustered:
				row[0] = value.Int(int64(r * opt.Domain / nRows))
			}
			spec.Rows = append(spec.Rows, row)
		}
		tables = append(tables, &genTable{spec: spec, cols: cols})
		c.Tables = append(c.Tables, spec)
	}

	// --- views (all over the anchor table T0, like the paper's
	// single-block examples) ---
	anchor := tables[0]
	nViews := 1 + rng.Intn(opt.MaxViews)
	for vi := 0; vi < nViews; vi++ {
		c.Views = append(c.Views, &ViewSpec{
			Name: fmt.Sprintf("V%d", vi),
			Def:  genViewDef(rng, anchor, opt),
		})
	}

	// --- query ---
	anchored := rng.Intn(7) != 0
	q := genQuery(rng, tables, &c.Views[0].Def, anchored, opt)
	c.Steps = []Step{{Kind: StepQuery, Query: &q}}
	return c, tables
}

// Workload is a generated serving workload: one random instance plus a
// pool of query shapes over its schema and a row generator for
// mutation barriers. Load harnesses (cmd/loadrunner) replay the pool
// from many concurrent sessions — repeated shapes exercise the serving
// layer's plan-cache hit path, and Rows supplies inserts that respect
// the schema's column kinds and declared keys.
type Workload struct {
	Case    *Case
	Queries []QuerySpec

	tables  []*genTable
	domain  int
	nextKey map[string]int64
}

// GenerateWorkload produces one random instance and nQueries query
// shapes over its schema (the first is the case's own query). The same
// rng state yields the same workload, so a client harness and a server
// loaded from the case's script can be built independently from one
// seed.
func GenerateWorkload(rng *rand.Rand, opt GenOptions, nQueries int) *Workload {
	opt = opt.withDefaults()
	w := newWorkload(rng, opt)
	w.Queries = append(w.Queries, *w.Case.Steps[0].Query)
	for len(w.Queries) < nQueries {
		w.Queries = append(w.Queries, w.query(rng, opt))
	}
	return w
}

// GenerateMutation produces one random case of 8–20 steps over a
// generated instance, mixing inserts (respecting declared keys),
// predicate deletes, non-key updates, anchored queries and inserts of
// extreme cells deleted at once (extremes). The instance is Generate's,
// its query drawn and dropped, plus, when it has two tables, a view
// joining them (genJoinView).
func GenerateMutation(rng *rand.Rand, opt GenOptions) *Case {
	opt = opt.withDefaults()
	w := newWorkload(rng, opt)
	c := w.Case
	if def := genJoinView(rng, w.tables); def != nil {
		c.Views = append(c.Views, &ViewSpec{Name: fmt.Sprintf("V%d", len(c.Views)), Def: *def})
	}
	c.Steps = nil
	n := 8 + rng.Intn(13)
	for len(c.Steps) < n {
		t := w.tables[rng.Intn(len(w.tables))]
		switch r := rng.Intn(10); {
		case r < 4 && rng.Intn(4) == 0:
			if steps := w.extremes(rng, t); steps != nil {
				c.Steps = append(c.Steps, steps...)
				continue
			}
			fallthrough
		case r < 4:
			c.Steps = append(c.Steps, Step{
				Kind: StepInsert, Table: t.spec.Name,
				Rows: w.Rows(rng, t.spec.Name, 1+rng.Intn(4)),
			})
		case r < 6:
			c.Steps = append(c.Steps, Step{
				Kind: StepDelete, Table: t.spec.Name,
				Where: strings.Join(genConds(rng, t, 2, opt.Domain), " AND "),
			})
		case r < 8:
			if step, ok := genUpdate(rng, t, opt); ok {
				c.Steps = append(c.Steps, step)
			}
		default:
			q := w.query(rng, opt)
			c.Steps = append(c.Steps, Step{Kind: StepQuery, Query: &q})
		}
	}
	return c
}

// newWorkload generates an instance with an empty query pool.
func newWorkload(rng *rand.Rand, opt GenOptions) *Workload {
	c, tables := generate(rng, opt)
	w := &Workload{Case: c, tables: tables, domain: opt.Domain, nextKey: map[string]int64{}}
	for _, t := range tables {
		w.nextKey[t.spec.Name] = int64(len(t.spec.Rows))
	}
	return w
}

// query draws one more query over the instance, anchored on its first
// view six times in seven.
func (w *Workload) query(rng *rand.Rand, opt GenOptions) QuerySpec {
	anchored := rng.Intn(7) != 0
	return genQuery(rng, w.tables, &w.Case.Views[0].Def, anchored, opt)
}

// extremes draws an insert of rows holding the cells a maintained SUM
// must take back out exactly, and, as the next step, the delete of those
// rows: MinInt64 beside MaxInt64 in an odd int column, or a NaN or an
// infinity in an odd float column. A keeper row goes in with them, equal
// in every other cell and plain in the column, and stays: the groups it
// shares with them outlive the delete, so their totals must be finite,
// and fit, again. The two ints go in together so each view and group
// that meets one meets both and their total, -1, fits int64 (a lone
// extreme makes totals the system and the reference both refuse); they
// are not drawn for a column a view's WHERE tests, which could keep one
// of them. A column a one-table view sums is preferred. The other cells
// are plain draws, so the delete names the rows by equalities on them
// and by differing from the keeper's cell — by key range in a keyed
// table. nil when the table has no such column outside its key.
func (w *Workload) extremes(rng *rand.Rand, t *genTable) []Step {
	keyed := len(t.spec.Key) > 0
	var pool, summed []int
	for ci, c := range t.cols {
		filtered, sums := w.viewsOn(t.spec.Name, c.name)
		if c.odd && !(keyed && ci == 0) && (c.kind == kindFloat || !filtered) {
			if pool = append(pool, ci); sums {
				summed = append(summed, ci)
			}
		}
	}
	if len(summed) > 0 {
		pool = summed
	}
	if len(pool) == 0 {
		return nil
	}
	x := pool[rng.Intn(len(pool))]
	keeper := make([]value.Value, len(t.cols))
	for ci, c := range t.cols {
		keeper[ci] = randomValue(rng, genCol{kind: c.kind}, w.domain)
	}
	cells := []value.Value{keeper[x], value.Float([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)])}
	if t.cols[x].kind == kindInt {
		cells = []value.Value{keeper[x], value.Int(math.MinInt64), value.Int(math.MaxInt64)}
	}
	var rows [][]value.Value
	for _, v := range cells {
		r := append([]value.Value{}, keeper...)
		r[x] = v
		if keyed {
			r[0] = value.Int(w.nextKey[t.spec.Name])
			w.nextKey[t.spec.Name]++
		}
		rows = append(rows, r)
	}
	var where []string
	for ci, c := range t.cols {
		switch {
		case keyed && ci == 0:
			where = append(where, fmt.Sprintf("%s >= %s AND %s <= %s", c.name, rows[1][0], c.name, rows[len(rows)-1][0]))
		case keyed:
		case ci == x:
			where = append(where, c.name+" <> "+keeper[ci].String())
		default:
			where = append(where, c.name+" = "+keeper[ci].String())
		}
	}
	return []Step{
		{Kind: StepInsert, Table: t.spec.Name, Rows: rows},
		{Kind: StepDelete, Table: t.spec.Name, Where: strings.Join(where, " AND ")},
	}
}

// viewsOn reports whether some view's WHERE names the column, and
// whether a view over the table alone sums it.
func (w *Workload) viewsOn(table, col string) (filtered, summed bool) {
	for _, v := range w.Case.Views {
		for _, cond := range v.Def.Where {
			filtered = filtered || slices.Contains(strings.Fields(cond), col)
		}
		summed = summed || slices.Equal(v.Def.From, []string{table}) && slices.Contains(v.Def.Select, "SUM("+col+")")
	}
	return filtered, summed
}

// genUpdate draws an UPDATE over the table's non-key columns:
// additive rewrites for numeric columns (exercising delta arithmetic)
// and constant rewrites otherwise. Key columns are never assigned, so
// a declared key stays honest across the case.
func genUpdate(rng *rand.Rand, t *genTable, opt GenOptions) (Step, bool) {
	keyed := map[string]bool{}
	for _, k := range t.spec.Key {
		keyed[k] = true
	}
	var pool []genCol
	for _, c := range t.cols {
		if !keyed[c.name] {
			pool = append(pool, c)
		}
	}
	if len(pool) == 0 {
		return Step{}, false
	}
	var sets []string
	for _, c := range pickCols(rng, pool, 1+rng.Intn(2)) {
		switch {
		case c.kind == kindInt && rng.Intn(2) == 0:
			sets = append(sets, fmt.Sprintf("%s = %s + %d", c.name, c.name, 1+rng.Intn(3)))
		case c.kind == kindFloat && rng.Intn(2) == 0:
			sets = append(sets, fmt.Sprintf("%s = %s + %s", c.name, c.name, renderConst(rng, genCol{kind: kindFloat}, opt.Domain)))
		default: // of the column's kind: an int past 2^53 takes no float
			sets = append(sets, c.name+" = "+renderConst(rng, genCol{kind: c.kind}, opt.Domain))
		}
	}
	return Step{
		Kind: StepUpdate, Table: t.spec.Name,
		Set:   strings.Join(sets, ", "),
		Where: strings.Join(genConds(rng, t, 2, opt.Domain), " AND "),
	}, true
}

// TableNames lists the instance's base tables.
func (w *Workload) TableNames() []string {
	out := make([]string, len(w.tables))
	for i, t := range w.tables {
		out[i] = t.spec.Name
	}
	return out
}

// Rows draws n fresh rows for the named table, honoring its column
// kinds; a declared key column keeps receiving unique sequential values
// so the key stays honest across mutation rounds.
func (w *Workload) Rows(rng *rand.Rand, table string, n int) [][]value.Value {
	for _, t := range w.tables {
		if t.spec.Name != table {
			continue
		}
		rows := make([][]value.Value, 0, n)
		for r := 0; r < n; r++ {
			row := make([]value.Value, len(t.cols))
			for ci, c := range t.cols {
				row[ci] = randomValue(rng, c, w.domain)
			}
			if len(t.spec.Key) > 0 {
				row[0] = value.Int(w.nextKey[table])
				w.nextKey[table]++
			}
			rows = append(rows, row)
		}
		return rows
	}
	return nil
}

// colName maps 0,1,2,... to A,B,...,Z,A1,B1,...
func colName(i int) string {
	s := string(rune('A' + i%26))
	if i >= 26 {
		s += fmt.Sprint(i / 26)
	}
	return s
}

// The odd draws (genCol.odd), as values and as predicate constants. NaN
// and ±Inf have no literal in a predicate, so they are no constants.
var (
	oddFloats = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1 << 53, 0.5, 1, 1e16, -1e16}
	oddInts   = []int64{1 << 53, 1<<53 + 1, -(1<<53 + 1)}
	oddConsts = []value.Value{value.Float(math.Copysign(0, -1)), value.Float(0), value.Float(0.5),
		value.Float(1 << 53), value.Int(1<<53 + 1), value.Int(-(1<<53 + 1))}
)

func randomValue(rng *rand.Rand, c genCol, domain int) value.Value {
	switch {
	case c.odd && c.kind == kindFloat:
		return value.Float(oddFloats[rng.Intn(len(oddFloats))])
	case c.odd && rng.Intn(4) == 0:
		return value.Int(oddInts[rng.Intn(len(oddInts))])
	}
	switch c.kind {
	case kindFloat:
		// Half-integers are exactly representable, so sums are exact in
		// any accumulation order and equality predicates are crisp.
		return value.Float(float64(rng.Intn(2*domain)) / 2)
	case kindStr:
		// "" and a quote test literal rendering; the NUL pair spells one
		// byte string when a tuple's cells are NUL-joined.
		strs := []string{"x", "y", "z", "", "it's", "x\x00sy", "y\x00s"}
		return value.Str(strs[rng.Intn(len(strs))])
	default:
		return value.Int(int64(rng.Intn(domain)))
	}
}

// renderConst renders a literal of the column's kind for use in a
// predicate: for an odd column, half the time one of the odd constants.
func renderConst(rng *rand.Rand, c genCol, domain int) string {
	if c.odd && rng.Intn(2) == 0 {
		return oddConsts[rng.Intn(len(oddConsts))].String()
	}
	return randomValue(rng, genCol{kind: c.kind}, domain).String() // quotes strings
}

// genConds emits up to max random equality/comparison conjuncts over
// the table's columns.
func genConds(rng *rand.Rand, t *genTable, max int, domain int) []string {
	var conds []string
	n := rng.Intn(max + 1)
	for i := 0; i < n; i++ {
		col := t.cols[rng.Intn(len(t.cols))]
		if col.kind != kindStr && rng.Intn(4) == 0 {
			// Occasional range predicate.
			op := []string{"<", "<=", ">", ">="}[rng.Intn(4)]
			conds = append(conds, fmt.Sprintf("%s %s %s", col.name, op, renderConst(rng, col, domain)))
			continue
		}
		if same := t.colsOfKind(col.kind); len(same) > 1 && rng.Intn(3) == 0 {
			other := same[rng.Intn(len(same))]
			if other.name != col.name {
				conds = append(conds, col.name+" = "+other.name)
				continue
			}
		}
		conds = append(conds, col.name+" = "+renderConst(rng, col, domain))
	}
	return conds
}

// genViewDef emits a random view over the anchor table: an aggregation
// view ~60% of the time, else conjunctive.
func genViewDef(rng *rand.Rand, t *genTable, opt GenOptions) QuerySpec {
	def := QuerySpec{From: []string{t.spec.Name}}
	def.Where = genConds(rng, t, 2, opt.Domain)
	if rng.Intn(5) < 3 {
		// Aggregation view: groups + aggregates, COUNT included often
		// (the multiplicity carrier most rewrite plans need).
		groups := pickCols(rng, t.cols, 1+rng.Intn(2))
		for _, g := range groups {
			def.GroupBy = append(def.GroupBy, g.name)
			def.Select = append(def.Select, g.name)
		}
		aggCols := aggregableCols(t, groups)
		if len(aggCols) == 0 {
			// Every numeric column is grouped; COUNT is the only
			// aggregate that tolerates any kind.
			def.Select = append(def.Select, "COUNT("+groups[rng.Intn(len(groups))].name+")")
			return def
		}
		a := aggCols[rng.Intn(len(aggCols))]
		if rng.Intn(2) == 0 {
			def.Select = append(def.Select, "SUM("+a.name+")")
		}
		if rng.Intn(2) == 0 {
			def.Select = append(def.Select, "MIN("+a.name+")", "MAX("+a.name+")")
		}
		if rng.Intn(5) != 0 || len(def.Select) == len(groups) {
			def.Select = append(def.Select, "COUNT("+a.name+")")
		}
		return def
	}
	// Conjunctive view; rare DISTINCT exercises the set-semantics gate.
	for _, col := range pickCols(rng, t.cols, 1+rng.Intn(len(t.cols))) {
		def.Select = append(def.Select, col.name)
	}
	def.Distinct = rng.Intn(10) == 0
	return def
}

// genJoinView draws a view joining the anchor table with the second
// one, when there is one and a join condition is found: two times in
// three on the second table's declared key when it has one (keyJoinCond),
// else on any pair joinCond finds. It is grouped by an anchor column,
// with the SUM, MIN and MAX of a plain numeric anchor column when there
// is one, and a COUNT. A write to the anchor of a view joined on the
// key reads the write's delta table beside each row's one partner,
// looked up in the second table; any other write runs a signed delta
// query for it. The mutation steps write both tables, so anchor rows
// naming no key and deletes of the keyed rows are met. No odd column
// feeds its SUM: the join multiplies each row's weight, and totals of
// odd ints could leave int64.
func genJoinView(rng *rand.Rand, tables []*genTable) *QuerySpec {
	if len(tables) < 2 {
		return nil
	}
	a, b := tables[0], tables[1]
	var cond string
	if len(b.spec.Key) > 0 && rng.Intn(3) != 0 {
		cond = keyJoinCond(rng, a, b)
	}
	if cond == "" {
		cond = joinCond(rng, a, b)
	}
	if cond == "" {
		return nil
	}
	g := a.cols[rng.Intn(len(a.cols))]
	def := &QuerySpec{From: []string{a.spec.Name, b.spec.Name}, Where: []string{cond}, GroupBy: []string{g.name}, Select: []string{g.name}}
	var plain []genCol
	for _, c := range aggregableCols(a, []genCol{g}) {
		if !c.odd {
			plain = append(plain, c)
		}
	}
	if len(plain) > 0 {
		x := plain[rng.Intn(len(plain))].name
		def.Select = append(def.Select, "SUM("+x+")", "MIN("+x+")", "MAX("+x+")")
	}
	def.Select = append(def.Select, "COUNT("+g.name+")")
	return def
}

// aggregableCols returns the numeric columns outside the grouping list.
func aggregableCols(t *genTable, groups []genCol) []genCol {
	grouped := map[string]bool{}
	for _, g := range groups {
		grouped[g.name] = true
	}
	var out []genCol
	for _, c := range t.cols {
		if c.kind != kindStr && !grouped[c.name] {
			out = append(out, c)
		}
	}
	return out
}

// oddFloatCols returns the table's odd float columns.
func oddFloatCols(t *genTable) []genCol {
	var out []genCol
	for _, c := range t.colsOfKind(kindFloat) {
		if c.odd {
			out = append(out, c)
		}
	}
	return out
}

// pickCols draws n distinct columns, order-preserving.
func pickCols(rng *rand.Rand, cols []genCol, n int) []genCol {
	if n > len(cols) {
		n = len(cols)
	}
	idx := rng.Perm(len(cols))[:n]
	// Order-preserving so rendered clause lists look natural.
	inSel := map[int]bool{}
	for _, i := range idx {
		inSel[i] = true
	}
	var out []genCol
	for i, c := range cols {
		if inSel[i] {
			out = append(out, c)
		}
	}
	return out
}

// genQuery emits the query under test. When anchored, its WHERE extends
// the view's (the paper's view-prefix shape) and its grouping and
// aggregates stay expressible over the view's output.
func genQuery(rng *rand.Rand, tables []*genTable, view *QuerySpec, anchored bool, opt GenOptions) QuerySpec {
	anchor := tables[0]
	q := QuerySpec{From: []string{anchor.spec.Name}}

	// Optional join with a second table.
	var joined *genTable
	if len(tables) > 1 && rng.Intn(3) == 0 {
		joined = tables[1]
		q.From = append(q.From, joined.spec.Name)
	}

	if anchored {
		q.Where = append(q.Where, view.Where...)
	}
	q.Where = append(q.Where, genConds(rng, anchor, 2, opt.Domain)...)
	if joined != nil {
		q.Where = append(q.Where, genConds(rng, joined, 1, opt.Domain)...)
		if eq := joinCond(rng, anchor, joined); eq != "" {
			q.Where = append(q.Where, eq)
		}
	}

	if rng.Intn(10) < 7 {
		// Aggregation query.
		groupPool := anchor.cols
		if anchored && len(view.GroupBy) > 0 {
			// Refine the view's grouping so condition C2 can hold.
			groupPool = nil
			for _, g := range view.GroupBy {
				groupPool = append(groupPool, findCol(anchor, g))
			}
		}
		groups := pickCols(rng, groupPool, 1+rng.Intn(2))
		for _, g := range groups {
			q.GroupBy = append(q.GroupBy, g.name)
			q.Select = append(q.Select, g.name)
		}
		aggPool := aggregableCols(anchor, groups)
		if anchored {
			if viewAggs := aggedCols(anchor, view); len(viewAggs) > 0 {
				aggPool = viewAggs
			}
		}
		if joined != nil && rng.Intn(3) == 0 {
			if jc := joined.colsOfKind(kindInt); len(jc) > 0 {
				aggPool = append(aggPool, jc[rng.Intn(len(jc))])
			}
		}
		if len(aggPool) == 0 {
			aggPool = []genCol{anchor.cols[0]}
		}
		nAggs := 1 + rng.Intn(2)
		var numAgg string
		for i := 0; i < nAggs; i++ {
			a := aggPool[rng.Intn(len(aggPool))]
			fn := "COUNT"
			if a.kind != kindStr {
				fn = []string{"SUM", "COUNT", "MIN", "MAX", "AVG"}[rng.Intn(5)]
				numAgg = fn + "(" + a.name + ")"
			}
			q.Select = append(q.Select, fn+"("+a.name+")")
		}
		// One query in four also reads a float MIN and MAX over an odd
		// column, whose groups mix NaN with numbers: NaN orders above
		// every number, so it is a group's MAX and never its MIN beside
		// one.
		if odd := oddFloatCols(anchor); len(odd) > 0 && rng.Intn(4) == 0 {
			f := odd[rng.Intn(len(odd))].name
			q.Select = append(q.Select, "MIN("+f+")", "MAX("+f+")")
		}
		// HAVING over any numeric aggregate, a float SUM or AVG too: every
		// total is exact and rounded once, so a group passes or fails
		// alike however a rewriting regroups its rows.
		if numAgg != "" && rng.Intn(3) == 0 {
			op := []string{">", ">=", "<", "<="}[rng.Intn(4)]
			q.Having = append(q.Having, fmt.Sprintf("%s %s %d", numAgg, op, rng.Intn(2*opt.Domain)))
		}
		return q
	}

	// Conjunctive query.
	pool := anchor.cols
	if joined != nil {
		pool = append(append([]genCol{}, pool...), joined.cols...)
	}
	for _, col := range pickCols(rng, pool, 1+rng.Intn(3)) {
		q.Select = append(q.Select, col.name)
	}
	q.Distinct = rng.Intn(10) < 3
	return q
}

// joinCond links the two tables on a same-kind column pair — one time
// in three an int column of one with a float column of the other, when
// there is such a pair — or returns "" when no pair exists.
func joinCond(rng *rand.Rand, a, b *genTable) string {
	if rng.Intn(3) == 0 {
		for _, p := range [][2]*genTable{{a, b}, {b, a}} {
			if ic, fc := p[0].colsOfKind(kindInt), p[1].colsOfKind(kindFloat); len(ic) > 0 && len(fc) > 0 {
				return ic[rng.Intn(len(ic))].name + " = " + fc[rng.Intn(len(fc))].name
			}
		}
	}
	for _, k := range []colKind{kindInt, kindFloat, kindStr} {
		ac, bc := a.colsOfKind(k), b.colsOfKind(k)
		if len(ac) > 0 && len(bc) > 0 {
			return ac[rng.Intn(len(ac))].name + " = " + bc[rng.Intn(len(bc))].name
		}
	}
	return ""
}

// keyJoinCond equates b's declared key, whose cells are ints, with a
// numeric column of a — a float one one time in three when a has one, so
// a lookup meets 1 against 1.0 — or returns "" when a has none.
func keyJoinCond(rng *rand.Rand, a, b *genTable) string {
	pool := a.colsOfKind(kindInt)
	if fc := a.colsOfKind(kindFloat); len(fc) > 0 && (len(pool) == 0 || rng.Intn(3) == 0) {
		pool = fc
	}
	if len(pool) == 0 {
		return ""
	}
	return pool[rng.Intn(len(pool))].name + " = " + b.spec.Key[0]
}

// findCol resolves a column name in the table (panics on generator
// inconsistency — the name always came from the same table).
func findCol(t *genTable, name string) genCol {
	for _, c := range t.cols {
		if c.name == name {
			return c
		}
	}
	panic("oracle: generator referenced unknown column " + name)
}

// aggedCols lists the anchor columns the view aggregates (SUM(x) etc.
// in its select list).
func aggedCols(t *genTable, view *QuerySpec) []genCol {
	var out []genCol
	seen := map[string]bool{}
	for _, item := range view.Select {
		open := strings.IndexByte(item, '(')
		if open < 0 {
			continue
		}
		name := strings.TrimSuffix(item[open+1:], ")")
		if !seen[name] {
			seen[name] = true
			out = append(out, findCol(t, name))
		}
	}
	return out
}
