// Package datagen generates the synthetic workloads used by the
// examples, tests and experiments: the telco data warehouse of Example
// 1.1 (with Zipf-skewed calling plans), the R1/R2 micro-schema of the
// paper's Sections 3-5, and an append-only transaction chronicle in the
// spirit of [JMS95]. A workload is DDL text and rows per table (Data);
// Data.Load declares the tables with the DDL and inserts the rows, so
// generated data takes the same path, and passes the same checks, as
// every other write.
package datagen

import (
	"context"
	"fmt"
	"math/rand"

	"aggview/internal/value"
)

// Data is one generated workload: the DDL that declares its tables and
// each table's rows, in load order.
type Data struct {
	DDL    string
	Tables []Table
}

// Table is one table's generated rows.
type Table struct {
	Name string
	Rows [][]value.Value
}

// Loader is what Data.Load needs of a system (*aggview.System has both).
type Loader interface {
	Load(script string) error
	InsertContext(ctx context.Context, table string, rows ...[]value.Value) error
}

// Load declares d's tables on l and inserts each table's rows as one
// batch.
func (d Data) Load(ctx context.Context, l Loader) error {
	if err := l.Load(d.DDL); err != nil {
		return err
	}
	for _, t := range d.Tables {
		if err := l.InsertContext(ctx, t.Name, t.Rows...); err != nil {
			return err
		}
	}
	return nil
}

// RandomRow produces one tuple of the given width, drawing each value
// from gen (which receives the column position, so per-column
// distributions compose). It is the building block shared by the
// micro-schema filler and the oracle's random-table generator.
func RandomRow(rng *rand.Rand, width int, gen func(rng *rand.Rand, col int) value.Value) []value.Value {
	row := make([]value.Value, width)
	for c := range row {
		row[c] = gen(rng, c)
	}
	return row
}

// TelcoDDL declares the schema of Example 1.1, with the paper's keys.
const TelcoDDL = `
CREATE TABLE Customer(Cust_Id, Cust_Name, Area_Code, Phone_Number) KEY(Cust_Id);
CREATE TABLE Calling_Plans(Plan_Id, Plan_Name) KEY(Plan_Id);
CREATE TABLE Calls(Call_Id, Cust_Id, Plan_Id, Day, Month, Year, Charge) KEY(Call_Id);`

// The telco warehouse's fixed shape: its calling plans, its customers,
// the years calls spread over, and the Zipf exponent of plan traffic.
const (
	telcoPlans     = 10
	telcoCustomers = 100
	telcoZipfS     = 1.2
)

var telcoYears = []int{1994, 1995, 1996}

// TelcoConfig sizes the telephony warehouse.
type TelcoConfig struct {
	Calls int // default 10000
	Seed  int64
}

// Telco populates the warehouse: Customer, Calling_Plans and Calls, with
// calls assigned to plans under a Zipf distribution (a few plans carry
// most of the traffic, as in a real tariff portfolio).
func Telco(cfg TelcoConfig) Data {
	if cfg.Calls == 0 {
		cfg.Calls = 10000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	plans := make([][]value.Value, telcoPlans)
	for p := range plans {
		plans[p] = []value.Value{value.Int(int64(p)), value.Str(fmt.Sprintf("plan_%02d", p))}
	}

	cust := make([][]value.Value, telcoCustomers)
	for c := range cust {
		cust[c] = []value.Value{value.Int(int64(c)), value.Str(fmt.Sprintf("cust_%04d", c)),
			value.Int(int64(200 + rng.Intn(800))), value.Int(int64(1000000 + rng.Intn(8999999)))}
	}

	zipf := rand.NewZipf(rng, telcoZipfS, 1, telcoPlans-1)
	calls := make([][]value.Value, cfg.Calls)
	for i := range calls {
		calls[i] = []value.Value{
			value.Int(int64(i)),
			value.Int(int64(rng.Intn(telcoCustomers))),
			value.Int(int64(zipf.Uint64())),
			value.Int(int64(1 + rng.Intn(28))),
			value.Int(int64(1 + rng.Intn(12))),
			value.Int(int64(telcoYears[rng.Intn(len(telcoYears))])),
			value.Int(int64(1 + rng.Intn(2000))), // cents
		}
	}
	return Data{DDL: TelcoDDL, Tables: []Table{
		{"Calling_Plans", plans}, {"Customer", cust}, {"Calls", calls},
	}}
}

// R1R2DDL declares the R1(A,B,C,D), R2(E,F) micro-schema without keys:
// R1R2's random rows repeat values in every column.
const R1R2DDL = `
CREATE TABLE R1(A, B, C, D);
CREATE TABLE R2(E, F);`

// r1r2KeyedDDL declares the micro-schema keyed on the first columns, as
// Example 5.1 needs. Example51's rows are the only ones loaded under it.
const r1r2KeyedDDL = `
CREATE TABLE R1(A, B, C, D) KEY(A);
CREATE TABLE R2(E, F) KEY(E);`

// R1R2Config sizes the micro-schema databases used by the Section 3-4
// example reproductions.
type R1R2Config struct {
	R1Rows, R2Rows int
	Domain         int // value domain size, default 4; small domains force collisions
	Seed           int64
}

// R1R2 fills the unkeyed micro-schema with uniform random small values.
func R1R2(cfg R1R2Config) Data {
	if cfg.Domain == 0 {
		cfg.Domain = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := func(rng *rand.Rand, _ int) value.Value { return value.Int(int64(rng.Intn(cfg.Domain))) }
	fill := func(n, width int) [][]value.Value {
		rows := make([][]value.Value, n)
		for i := range rows {
			rows[i] = RandomRow(rng, width, gen)
		}
		return rows
	}
	return Data{DDL: R1R2DDL, Tables: []Table{{"R1", fill(cfg.R1Rows, 4)}, {"R2", fill(cfg.R2Rows, 2)}}}
}

// Example51 holds the three R1 rows on which the experiments check
// Example 5.1's rewriting, under the keyed micro-schema (keyed) or the
// unkeyed one. A is a key of them, and the view's self-join r.B = s.C
// pairs two distinct rows.
func Example51(keyed bool) Data {
	ddl := R1R2DDL
	if keyed {
		ddl = r1r2KeyedDDL
	}
	return Data{DDL: ddl, Tables: []Table{
		{"R1", [][]value.Value{
			{value.Int(1), value.Int(5), value.Int(5), value.Int(0)},
			{value.Int(2), value.Int(5), value.Int(7), value.Int(0)},
			{value.Int(3), value.Int(7), value.Int(5), value.Int(0)},
		}},
		{"R2", nil},
	}}
}

// ChronicleDDL declares the ledger schema.
const ChronicleDDL = `
CREATE TABLE Txns(Txn_Id, Acct_Id, Day, Amount) KEY(Txn_Id);
CREATE TABLE Accounts(Acct_Id, Branch) KEY(Acct_Id);`

// chronicleDays is the number of days the ledger's transactions spread
// over.
const chronicleDays = 30

// ChronicleConfig sizes the transaction-recording scenario: an
// append-only ledger of account transactions, summarized per account and
// per (account, day) — the chronicle model of [JMS95].
type ChronicleConfig struct {
	Accounts int // default 50
	Txns     int
	Seed     int64
}

// Chronicle populates the ledger.
func Chronicle(cfg ChronicleConfig) Data {
	if cfg.Accounts == 0 {
		cfg.Accounts = 50
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	accts := make([][]value.Value, cfg.Accounts)
	for a := range accts {
		accts[a] = []value.Value{value.Int(int64(a)), value.Int(int64(a % 7))}
	}
	txns := make([][]value.Value, cfg.Txns)
	for i := range txns {
		txns[i] = []value.Value{value.Int(int64(i)), value.Int(int64(rng.Intn(cfg.Accounts))),
			value.Int(int64(1 + rng.Intn(chronicleDays))), value.Int(int64(rng.Intn(10000)) - 2000)}
	}
	return Data{DDL: ChronicleDDL, Tables: []Table{{"Accounts", accts}, {"Txns", txns}}}
}
