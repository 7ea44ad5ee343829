package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Scale sizes the warehouse. The shipped numbers use FullScale; the
// package test uses a tiny one so it finishes in seconds.
type Scale struct {
	Calls, Customers, Plans int
}

// FullScale is the size BENCHMARK.json states: Example 1.1's schema with
// Calls 100 000 x 7, Customer 500, Calling_Plans 10.
var FullScale = Scale{Calls: 100000, Customers: 500, Plans: 10}

// The plan-cache capacity the workloads are sized against (server
// default) and the number of distinct canonical keys plan_cold cycles
// through: 8x the capacity, so an LRU never holds a key when it recurs.
const (
	cacheCapacity = 256
	coldKeys      = 2048
)

var years = []int{1994, 1995, 1996}

// viewDefs are the six declared views, all tracked. The search needs
// usable and unusable candidates: V1 is the paper's join view, VPlanMonth
// its single-table sibling, VCust a per-customer SUM/COUNT/MAX, VSel96
// only covers one year (selective), VYear is too coarse for any
// plan-level question, VRange holds MIN/MAX.
var viewDefs = []struct{ Name, Select string }{
	{"V1", `SELECT Calls.Plan_Id, Plan_Name, Month, Year, SUM(Charge) FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id GROUP BY Calls.Plan_Id, Plan_Name, Month, Year`},
	{"VPlanMonth", `SELECT Plan_Id, Month, Year, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Plan_Id, Month, Year`},
	{"VCust", `SELECT Cust_Id, SUM(Charge), COUNT(Charge), MAX(Charge) FROM Calls GROUP BY Cust_Id`},
	{"VSel96", `SELECT Plan_Id, Month, SUM(Charge) FROM Calls WHERE Year = 1996 GROUP BY Plan_Id, Month`},
	{"VYear", `SELECT Year, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Year`},
	{"VRange", `SELECT Plan_Id, Year, MIN(Charge), MAX(Charge) FROM Calls GROUP BY Plan_Id, Year`},
}

// Script renders the seeded warehouse as the SQL script `aggserve
// -script` loads: CREATE TABLE, one INSERT per table, CREATE VIEW. The
// same seed and scale give the same bytes.
func Script(seed int64, sc Scale) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.Grow(sc.Calls * 40)

	b.WriteString("CREATE TABLE Customer(Cust_Id, Cust_Name, Area_Code, Phone_Number) KEY(Cust_Id);\n")
	b.WriteString("INSERT INTO Customer VALUES ")
	for c := 0; c < sc.Customers; c++ {
		if c > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 'cust_%04d', %d, %d)", c, c, 200+rng.Intn(40), 1000000+rng.Intn(8999999))
	}
	b.WriteString(";\n")

	b.WriteString("CREATE TABLE Calling_Plans(Plan_Id, Plan_Name) KEY(Plan_Id);\n")
	b.WriteString("INSERT INTO Calling_Plans VALUES ")
	for p := 0; p < sc.Plans; p++ {
		if p > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 'plan_%02d')", p, p)
	}
	b.WriteString(";\n")

	// A few plans carry most of the traffic (Zipf s = 1.2), as in a
	// real tariff portfolio.
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(sc.Plans-1))
	b.WriteString("CREATE TABLE Calls(Call_Id, Cust_Id, Plan_Id, Day, Month, Year, Charge) KEY(Call_Id);\n")
	b.WriteString("INSERT INTO Calls VALUES ")
	for i := 0; i < sc.Calls; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		writeCall(&b, i, rng, zipf, sc)
	}
	b.WriteString(";\n")

	for _, v := range viewDefs {
		b.WriteString("CREATE VIEW " + v.Name + " AS " + v.Select + ";\n")
	}
	return b.String()
}

func callFields(id int, rng *rand.Rand, zipf *rand.Zipf, sc Scale) [7]int {
	return [7]int{
		id,
		rng.Intn(sc.Customers),
		int(zipf.Uint64()),
		1 + rng.Intn(28),
		1 + rng.Intn(12),
		years[rng.Intn(len(years))],
		1 + rng.Intn(2000), // cents
	}
}

func writeCall(b *strings.Builder, id int, rng *rand.Rand, zipf *rand.Zipf, sc Scale) {
	f := callFields(id, rng, zipf, sc)
	b.WriteByte('(')
	for j, v := range f {
		if j > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.Itoa(v))
	}
	b.WriteByte(')')
}

// OpKind is what one operation asks the server to do.
type OpKind int

const (
	OpQuery OpKind = iota
	OpInsert
	OpDelete
	OpUpdate
)

// Op is one request of a workload's sequence, with what a correct
// reply must say about the plan it ran.
type Op struct {
	Kind OpKind
	// Name is the op kind the latency is reported under: the query
	// template (ops of one template differ only in constants) or
	// "insert", "delete", "update".
	Name string
	// Hot marks the reads that make up read_p50_ms: the view-answerable
	// reads, or on base_scan its warm scans.
	Hot bool

	SQL string // OpQuery

	Table string // mutations
	// Rows are wire-encoded: the rows an insert sends, or the rows a
	// delete or update is known to match (the server never sees those;
	// the traced run feeds them to its private maintainer).
	Rows  [][]string
	Where string // OpDelete, OpUpdate
	Set   string // OpUpdate

	// WantView requires a non-empty Used (answered from views) when
	// true and an empty one when false.
	WantView bool
	// WantCache is the required plan-cache verdict once the workload is
	// warm ("hit", "miss"), or "" when either is right (a base-table
	// plan right after a write is re-prepared).
	WantCache string
	// WantRows is the exact affected-row count of a mutation.
	WantRows int
}

// Workload is a named, seeded, deterministic op sequence. Op(i) is the
// i-th request of every pass; passes start again from 0 on a fresh
// system.
type Workload struct {
	Name string
	Why  string
	// Cycle is the period of the op kinds (not of the constants); a
	// pass times whole cycles only.
	Cycle int
	// Kinds lists the op kinds in report order.
	Kinds []string
	// Warm is how many ops a pass issues before it starts timing.
	Warm int
	// TraceOps is the length of the traced prefix.
	TraceOps int
	Op       func(i int) Op
}

const paperQ = `SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge) FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = %d GROUP BY Calling_Plans.Plan_Id, Plan_Name HAVING SUM(Charge) < %d`

const paperQMonth = `SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge) FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = %d AND Month = %d GROUP BY Calling_Plans.Plan_Id, Plan_Name HAVING SUM(Charge) < %d`

// viewRead and scanRead are the two reads write_mix interleaves with
// its writes; they also appear in view_hit and base_scan.
const (
	viewReadSQL = `SELECT Plan_Id, Month, SUM(Charge) FROM Calls WHERE Year = 1995 GROUP BY Plan_Id, Month`
	scanReadSQL = `SELECT Day, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Day`
)

// Workloads builds the four op sequences for a seed. The seed picks the
// HAVING thresholds and the rows write_mix inserts; the warehouse itself
// comes from Script with the same seed. Query shapes, their order and
// their selectivities do not depend on the seed, so that runs on
// different seeds do the same amount of work and stay comparable.
func Workloads(seed int64, sc Scale) []*Workload {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	// Yearly plan earnings are ~calls/3 * 1000 cents spread Zipf over
	// the plans; a threshold near a tenth of that keeps the HAVING
	// result non-empty and selective.
	yearTotal := sc.Calls / 3 * 1000
	thr := func() int { return yearTotal/12 + rng.Intn(yearTotal/12) }

	dash := []Op{
		{SQL: fmt.Sprintf(paperQ, 1995, thr()), Name: "paper_q_1995"},
		{SQL: fmt.Sprintf(paperQ, 1996, thr()), Name: "paper_q_1996"},
		{SQL: viewReadSQL, Name: "plan_month"},
		{SQL: `SELECT Plan_Id, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Plan_Id`, Name: "plan_total"},
		{SQL: `SELECT Cust_Id, SUM(Charge), MAX(Charge) FROM Calls GROUP BY Cust_Id`, Name: "per_customer"},
		{SQL: `SELECT Plan_Id, MAX(Charge) FROM Calls WHERE Year = 1994 GROUP BY Plan_Id`, Name: "plan_max"},
	}
	for i := range dash {
		dash[i].Kind, dash[i].Hot, dash[i].WantView, dash[i].WantCache = OpQuery, true, true, "hit"
	}

	scans := []Op{
		{SQL: scanReadSQL, Name: "by_day"},
		{SQL: `SELECT Area_Code, SUM(Charge) FROM Calls, Customer WHERE Calls.Cust_Id = Customer.Cust_Id AND Day <= 14 GROUP BY Area_Code`, Name: "area_join"},
		{SQL: `SELECT Plan_Id, MAX(Charge) FROM Calls WHERE Charge >= 500 AND Charge < 1500 GROUP BY Plan_Id`, Name: "charge_range"},
		{SQL: `SELECT Month, COUNT(Call_Id) FROM Calls WHERE Day = 7 GROUP BY Month`, Name: "one_day"},
	}
	for i := range scans {
		scans[i].Kind, scans[i].Hot, scans[i].WantCache = OpQuery, true, "hit"
	}

	coldBase := yearTotal/12/12 + rng.Intn(yearTotal/12/12)
	cold := func(i int) Op {
		k := i % coldKeys
		// The threshold alone makes the 2048 canonical keys distinct;
		// Year and Month vary so the executed plan does not always read
		// the same view rows.
		return Op{Kind: OpQuery, Name: "paper_q_month", Hot: true, WantView: true, WantCache: "miss",
			SQL: fmt.Sprintf(paperQMonth, years[k%3], 1+(k/3)%12, coldBase+k)}
	}

	// write_mix can never fail an operation: each cycle inserts 16 rows
	// under fresh Call_Ids above the loaded ones, then deletes the first
	// 8 of them and updates the other 8, so every key range it names
	// holds exactly the rows it expects however long a pass runs.
	wrng := rand.New(rand.NewSource(seed ^ 0x771e))
	wzipf := rand.NewZipf(wrng, 1.2, 1, uint64(sc.Plans-1))
	const insRows, delRows, updRows = 16, 8, 8
	// Rows are drawn lazily but always in cycle order, so Op(i) returns
	// the same rows whatever order it is called in.
	var inserts [][][]string
	insertRows := func(cycle int) [][]string {
		for len(inserts) <= cycle {
			c := len(inserts)
			rows := make([][]string, insRows)
			for r := range rows {
				f := callFields(sc.Calls+c*insRows+r, wrng, wzipf, sc)
				row := make([]string, len(f))
				for j, v := range f {
					row[j] = "i:" + strconv.Itoa(v)
				}
				rows[r] = row
			}
			inserts = append(inserts, rows)
		}
		return inserts[cycle]
	}
	viewRead := Op{Kind: OpQuery, Name: "plan_month", Hot: true, SQL: viewReadSQL, WantView: true, WantCache: "hit"}
	scanRead := Op{Kind: OpQuery, Name: "by_day", SQL: scanReadSQL}
	write := func(i int) Op {
		c := i / 8
		switch i % 8 {
		case 0:
			return Op{Kind: OpInsert, Name: "insert", Table: "Calls", Rows: insertRows(c), WantRows: insRows}
		case 3:
			a := sc.Calls + c*insRows
			return Op{Kind: OpDelete, Name: "delete", Table: "Calls", WantRows: delRows, Rows: insertRows(c)[:delRows],
				Where: fmt.Sprintf("Call_Id >= %d AND Call_Id < %d", a, a+delRows)}
		case 5:
			a := sc.Calls + c*insRows + delRows
			return Op{Kind: OpUpdate, Name: "update", Table: "Calls", WantRows: updRows, Rows: insertRows(c)[delRows:], Set: "Charge = Charge + 1",
				Where: fmt.Sprintf("Call_Id >= %d AND Call_Id < %d", a, a+updRows)}
		case 2, 7:
			return scanRead
		default:
			return viewRead
		}
	}

	// The traced prefix shrinks with the warehouse so the package test,
	// at a fiftieth of the size, stays within seconds; whole cycles only.
	traced := func(n, cycle int) int { return max(cycle, min(n, sc.Calls/20)/cycle*cycle) }
	names := func(ops []Op) []string {
		out := make([]string, len(ops))
		for i, op := range ops {
			out[i] = op.Name
		}
		return out
	}
	return []*Workload{
		{Name: "view_hit", Cycle: len(dash), Kinds: names(dash), Warm: 50 * len(dash), TraceOps: traced(2000, len(dash)),
			Why: "6 dashboard queries answered from maintained views through a warm plan cache (6 keys, capacity 256): parse, PlanKey, lookup, tiny execution and wire dominate",
			Op:  func(i int) Op { return dash[i%len(dash)] }},
		{Name: "plan_cold", Cycle: 1, Kinds: []string{"paper_q_month"}, Warm: 300, TraceOps: traced(2000, 1),
			Why: "the paper's Q with constants cycling over 2048 canonical keys against capacity 256, every reply a cache miss: the full rewrite search runs per request, then a small view is read",
			Op:  cold},
		{Name: "base_scan", Cycle: len(scans), Kinds: names(scans), Warm: 10 * len(scans), TraceOps: traced(1000, len(scans)),
			Why: "4 queries no view can answer with warm plans: engine scan, filter, join and aggregate over all 100 000 Calls rows do nearly all the work",
			Op:  func(i int) Op { return scans[i%len(scans)] }},
		{Name: "write_mix", Cycle: 8, Kinds: []string{"insert", "plan_month", "by_day", "delete", "update"}, Warm: 16, TraceOps: traced(120, 8),
			Why: "8-op cycle of 16-row insert, 8-row delete, 8-row update, view reads and base scans: copy-on-write apply, counting maintenance of six views, plan eviction and image rebuild",
			Op:  write},
	}
}

// SequenceText renders the first n ops of every workload, one per line;
// the package test compares it across generations to pin determinism.
func SequenceText(ws []*Workload, n int) string {
	var b strings.Builder
	for _, w := range ws {
		for i := 0; i < n; i++ {
			op := w.Op(i)
			fmt.Fprintf(&b, "%s %d %d %s %s|%s|%s|%s|%v\n", w.Name, i, op.Kind, op.Name, op.SQL, op.Table, op.Where, op.Set, op.Rows)
		}
	}
	return b.String()
}
