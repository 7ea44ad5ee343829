package aggview_test

import (
	"context"
	"testing"

	"aggview/internal/server"
)

// TestReadCostIsRowSized is the regression guard for the cache-hit read
// path: a warm 500-group view read pays for each result row once per
// layer — its cells in the engine's flat result backing, its bytes in the
// handler's pooled body, its substrings in the client's one backing — and
// for nothing else per row, so objects allocated per result row stay
// under 3 end to end through the wire client (about 17 before: 4 in the
// engine, 7 encoding, 6 decoding) and under 1 in the engine alone.
func TestReadCostIsRowSized(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 10000-row warehouse")
	}
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop what the pipeline recycles")
	}
	const sql = `SELECT Cust_Id, SUM(Charge), MAX(Charge) FROM Calls GROUP BY Cust_Id`
	const groups = 500
	ctx := context.Background()
	sys := warehouse(t, 10_000)

	p, err := sys.PrepareContext(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Used) == 0 {
		t.Fatalf("plan does not read a view: %s", p.Key)
	}
	engineAllocs := testing.AllocsPerRun(20, func() {
		if res, err := sys.ExecPreparedContext(ctx, p); err != nil || res.Len() != groups {
			t.Fatalf("ExecPreparedContext: %d rows, err %v", res.Len(), err)
		}
	})

	srv := server.New(sys, server.Config{FlightRecorder: -1, SlowLogSize: -1})
	defer srv.Close()
	client := &server.Client{Base: "http://inproc", HTTP: &server.InProcessExec{S: srv}}
	read := func() {
		resp, err := client.Query(ctx, sql)
		if err != nil || len(resp.Rows) != groups || len(resp.Used) == 0 {
			t.Fatalf("Query: %d rows, used %v, err %v", len(resp.Rows), resp.Used, err)
		}
	}
	read() // the miss that plans the statement and aliases its text
	wireAllocs := testing.AllocsPerRun(20, read)

	t.Logf("objects allocated per warm %d-group view read: %.0f in the engine, %.0f through the wire client", groups, engineAllocs, wireAllocs)
	if engineAllocs >= groups {
		t.Errorf("ExecPreparedContext allocated %.0f objects for %d rows, want under 1 per row", engineAllocs, groups)
	}
	if wireAllocs >= 3*groups {
		t.Errorf("a wire read allocated %.0f objects for %d rows, want under 3 per row", wireAllocs, groups)
	}
}
