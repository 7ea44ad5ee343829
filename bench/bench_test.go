package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"aggview/internal/engine"
)

// tiny is a fiftieth of the shipped warehouse: enough rows for every
// view and query to be non-empty, small enough to finish in seconds.
var tiny = Scale{Calls: 2000, Customers: 50, Plans: 10}

type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// metricLines collects "<workload> <metric> <value> <unit>" lines as
// workload -> metric -> units seen (one entry per printing).
func metricLines(out string) map[string]map[string][]string {
	seen := map[string]map[string][]string{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "{") || f[1] == "pass" || f[1] == "FAILED" {
			continue
		}
		if seen[f[0]] == nil {
			seen[f[0]] = map[string][]string{}
		}
		seen[f[0]][f[1]] = append(seen[f[0]][f[1]], f[3])
	}
	return seen
}

// lastJSON decodes the driver's result line that ends a workload's
// report.
func lastJSON(t *testing.T, out string) report {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return rep
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestEveryMetricPrintedOnce runs every workload, gated and traced, at
// tiny scale and holds the output to BENCHMARK.json: each declared
// metric appears exactly once per workload with its declared unit, and
// the result line carries exactly the declared set.
func TestEveryMetricPrintedOnce(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != 4 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want 4", len(bj.Workloads))
	}
	type declared = struct{ Name, Unit, Better string }
	var endToEnd []declared
	if len(bounds) != len(bj.EndToEnd) {
		t.Fatalf("aa.go bounds %d metrics, BENCHMARK.json declares %d", len(bounds), len(bj.EndToEnd))
	}
	for i, m := range bj.EndToEnd {
		endToEnd = append(endToEnd, declared{m.Name, m.Unit, m.Better})
		if bounds[i].Name != m.Name || bounds[i].Bound != m.Bound {
			t.Errorf("aa.go has %+v where BENCHMARK.json has %s bound %v", bounds[i], m.Name, m.Bound)
		}
	}
	for _, mode := range []struct {
		trace bool
		want  []declared
	}{{false, endToEnd}, {true, bj.PerLayer}} {
		for _, wl := range bj.Workloads {
			var buf bytes.Buffer
			ok, err := run(context.Background(), &buf, options{
				Workload: wl.Name, Seed: 1, Seconds: 0.25, Trace: mode.trace, Out: t.TempDir(), Scale: tiny,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, mode.trace, err)
			}
			if !ok {
				t.Fatalf("%s trace=%v reported failures:\n%s", wl.Name, mode.trace, buf.String())
			}
			seen := metricLines(buf.String())[wl.Name]
			rep := lastJSON(t, buf.String())
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: result line %+v", wl.Name, mode.trace, rep)
			}
			if len(rep.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%v: result line has %d metrics, BENCHMARK.json declares %d", wl.Name, mode.trace, len(rep.Metrics), len(mode.want))
			}
			for _, m := range mode.want {
				if !nameRE.MatchString(m.Name) {
					t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
				}
				if units := seen[m.Name]; len(units) != 1 || units[0] != m.Unit {
					t.Errorf("%s trace=%v: %s printed with units %v, want once with %q", wl.Name, mode.trace, m.Name, units, m.Unit)
				}
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: result line has %s = %+v (present %v), want unit %q", wl.Name, mode.trace, m.Name, got, ok, m.Unit)
				}
			}
			for _, extra := range []string{"ops_attempted", "ops_failed"} {
				if len(seen[extra]) != 1 {
					t.Errorf("%s trace=%v: %s printed %d times", wl.Name, mode.trace, extra, len(seen[extra]))
				}
			}
		}
	}
}

// TestTraceWritesSpans checks the traced run leaves its spans on disk
// with the parent links the self-time arithmetic needs.
func TestTraceWritesSpans(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if _, err := run(context.Background(), &buf, options{Workload: "write_mix", Seed: 2, Trace: true, Out: dir, Scale: tiny}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/trace-write_mix.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []Span }
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range file.Spans {
		names[s.Name] = true
		if s.End < s.Start || s.Parent >= s.ID {
			t.Fatalf("malformed span %+v", s)
		}
		if s.Parent >= 0 && file.Spans[s.Parent].Op != s.Op {
			t.Fatalf("span %+v does not share its parent's op", s)
		}
	}
	for _, want := range []string{"op", "aggview.plan_key", "server.plancache.lookup", "aggview.prepare", "core.search", "aggview.exec", "aggview.insert", "aggview.delete", "aggview.update", "maintain.apply", "engine.coltable_build"} {
		if !names[want] {
			t.Errorf("no %q span in the write_mix trace", want)
		}
	}
}

// TestSequenceIsSeeded pins input determinism: one seed, one byte
// sequence; another seed, another.
func TestSequenceIsSeeded(t *testing.T) {
	a := Script(7, tiny) + SequenceText(Workloads(7, tiny), 64)
	b := Script(7, tiny) + SequenceText(Workloads(7, tiny), 64)
	c := Script(8, tiny) + SequenceText(Workloads(8, tiny), 64)
	if a != b {
		t.Error("the same seed generated different inputs")
	}
	if a == c {
		t.Error("different seeds generated the same inputs")
	}
	if SequenceText(Workloads(7, tiny), 64) == SequenceText(Workloads(8, tiny), 64) {
		t.Error("different seeds generated the same op sequence")
	}
}

// TestGateTripsOnTamperedAnswer corrupts every served answer on its way
// to the comparison; the pass must count failures and the run must not
// report correct.
func TestGateTripsOnTamperedAnswer(t *testing.T) {
	r := &Runner{Script: Script(3, tiny), Tamper: func(rel *engine.Relation) {
		if rel.Len() > 0 {
			rel.Tuples = rel.Tuples[1:]
		}
	}}
	p, err := r.RunPass(context.Background(), Workloads(3, tiny)[0], 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if p.Failed == 0 {
		t.Fatal("a dropped row in every answer went unnoticed")
	}
	var buf bytes.Buffer
	if printReport(&buf, "view_hit", nil, nil, p.Attempted, p.Failed, p.Failures) {
		t.Error("a run with failed comparisons reported correct")
	}
	if !strings.Contains(buf.String(), "differs from direct evaluation") {
		t.Errorf("failure not named in the report:\n%s", buf.String())
	}
}

// TestQuartileSpreadMatchesPython pins the steadiness figure to
// statistics.quantiles(values, n=4) on a worked example.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	vals := []float64{10, 12, 11, 15, 13, 14, 12.5, 11.5, 10.5, 13.5}
	// statistics.quantiles -> [10.875, 12.25, 13.625]; median 12.25.
	want := (13.625 - 10.875) / 12.25
	if got := quartileSpread(vals); got < want-1e-12 || got > want+1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
