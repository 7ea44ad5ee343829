// Mobilecache simulates the paper's mobile-computing motivation
// (Section 1, [BI94, HSW94]): a client caches the results of earlier
// queries as materialized views; when the wireless link to the server
// drops, later queries are answered from the cache whenever the
// usability conditions hold.
//
// The server holds a sensor-readings table. The client earlier cached
// (a) hourly per-sensor aggregates and (b) the raw readings of one
// region. While offline, three new queries arrive: two are answerable
// from the cache, one is not.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"aggview"
)

func main() {
	// --- the server-side database ---
	ctx := context.Background()
	server := aggview.New()
	server.MustLoad(`
		CREATE TABLE Readings(Reading_Id, Sensor, Region, Hour, Temp) KEY(Reading_Id);
	`)
	rng := rand.New(rand.NewSource(7))
	var rows [][]aggview.Value
	for i := 0; i < 20000; i++ {
		rows = append(rows, []aggview.Value{
			aggview.Int(int64(i)),
			aggview.Int(int64(rng.Intn(40))),
			aggview.Int(int64(rng.Intn(4))),
			aggview.Int(int64(rng.Intn(24))),
			aggview.Int(int64(-10 + rng.Intn(45))),
		})
	}
	if err := server.InsertContext(ctx, "Readings", rows...); err != nil {
		log.Fatal(err)
	}

	// --- the client: same schema, but only cached views have data ---
	client := aggview.New()
	client.MustLoad(`
		CREATE TABLE Readings(Reading_Id, Sensor, Region, Hour, Temp) KEY(Reading_Id);
	`)
	cache := map[string]string{
		"HourlyBySensor": `SELECT Sensor, Region, Hour, SUM(Temp), COUNT(Temp), MIN(Temp), MAX(Temp)
			FROM Readings GROUP BY Sensor, Region, Hour`,
		"Region0Raw": `SELECT Reading_Id, Sensor, Hour, Temp FROM Readings WHERE Region = 0`,
	}
	for name, sql := range cache {
		server.MustDefineView(name, sql)
		client.MustDefineView(name, sql)
	}
	// The server tracks the two views; the client "downloads" their rows
	// over the (still live) link.
	for name := range cache {
		if _, err := server.TrackViewContext(ctx, name); err != nil {
			log.Fatal(err)
		}
		rel, _ := server.DB.Get(name)
		client.DB.Put(name, rel)
		fmt.Printf("cached %-16s %6d rows\n", name, rel.Len())
	}
	fmt.Println("\n-- link drops; answering from cache only --")

	queries := []struct {
		desc, sql string
	}{
		{"per-region daily profile (coalesces the hourly cache)",
			"SELECT Region, Hour, AVG(Temp) FROM Readings GROUP BY Region, Hour"},
		{"region-0 hot readings (from the raw regional cache)",
			"SELECT Sensor, COUNT(Temp) FROM Readings WHERE Region = 0 AND Temp > 25 GROUP BY Sensor"},
		{"per-sensor median-ish: needs raw rows of every region",
			"SELECT Sensor, Temp FROM Readings WHERE Hour = 3"},
	}

	for _, tc := range queries {
		fmt.Printf("\n%s:\n  %s\n", tc.desc, tc.sql)
		rws, err := client.RewritingsContext(ctx, tc.sql)
		if err != nil {
			log.Fatal(err)
		}
		if len(rws) == 0 {
			fmt.Println("  -> NOT answerable from the cache; queued until the link returns")
			continue
		}
		res, err := client.ExecRewritingContext(ctx, rws[0])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  -> answered offline via %v (%d result rows)\n", rws[0].Used, res.Len())

		// Sanity: the offline answer matches what the server would say.
		want, err := server.QueryContext(ctx, tc.sql)
		if err != nil {
			log.Fatal(err)
		}
		if want.Len() != res.Len() {
			log.Fatalf("offline answer diverged: %d vs %d rows", res.Len(), want.Len())
		}
	}
}
