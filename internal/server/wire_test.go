package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"

	"aggview"
	"aggview/internal/datagen"
	"aggview/internal/engine"
	"aggview/internal/ir"
	"aggview/internal/value"
)

// wireValues are the codec's cases: every kind, int64 beyond float64's
// 2^53 integer range (the reason values ride as tagged text, not JSON
// numbers) and strings containing the tag separator.
var wireValues = []value.Value{
	value.Int(0),
	value.Int(-7),
	value.Int(math.MaxInt64),
	value.Int(math.MinInt64),
	value.Int(1<<53 + 1), // not representable as float64
	value.Float(2.5),
	value.Float(-0.1),
	value.Float(math.MaxFloat64),
	value.Str(""),
	value.Str("plain"),
	value.Str("with:colon:and\nnewline"),
	value.Str("i:123"), // payload that looks like an encoding
	value.Bool(true),
	value.Bool(false),
}

// malformedWireValues are strings DecodeValue refuses.
var malformedWireValues = []string{"", "i", "x:1", "i:notanumber", "b:maybe", "ii:1", ":payload", "f:one"}

// TestWireValueRoundTrip pins the codec: every one of wireValues
// survives the wire exactly.
func TestWireValueRoundTrip(t *testing.T) {
	for _, v := range wireValues {
		enc := EncodeValue(v)
		got, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("DecodeValue(%q): %v", enc, err)
		}
		if got.Key() != v.Key() {
			t.Errorf("round trip %v -> %q -> %v", v, enc, got)
		}
	}
}

func TestWireValueMalformed(t *testing.T) {
	for _, s := range malformedWireValues {
		if _, err := DecodeValue(s); err == nil {
			t.Errorf("DecodeValue(%q): expected error", s)
		}
	}
}

func TestWireRelationRoundTrip(t *testing.T) {
	r := engine.NewRelation("a", "b")
	r.Add(value.Int(1), value.Str("x"))
	r.Add(value.Int(1), value.Str("x")) // duplicates must survive (bag semantics)
	r.Add(value.Int(2), value.Float(0.5))
	attrs, rows := EncodeRelation(r)
	back, err := DecodeRelation(attrs, rows)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.ResultsEqualBag(r, back) {
		t.Fatalf("relation changed over the wire:\nwant %v\ngot %v", r, back)
	}
	if len(back.Attrs) != 2 || back.Attrs[0] != "a" || back.Attrs[1] != "b" {
		t.Fatalf("attrs changed: %v", back.Attrs)
	}
}

// appendQueryResponse encodes a row-shaped result the way the handler
// encodes every result: stored as typed columns, then appendQueryColumns.
// The tests below were written against rows and keep checking the same
// bytes.
func appendQueryResponse(dst []byte, res *engine.Relation, used []string, cache string, elapsedNs int64) []byte {
	body, _ := appendQueryColumns(dst, engine.BuildColTable(res), used, cache, elapsedNs)
	return body
}

// stdlibBody is the /query success body as json.Marshal writes it from
// the [][]string form: what appendQueryResponse must reproduce.
func stdlibBody(t testing.TB, r *engine.Relation, used []string, cache string, elapsedNs int64) []byte {
	t.Helper()
	attrs, rows := EncodeRelation(r)
	want, err := json.Marshal(QueryResponse{Attrs: attrs, Rows: rows, Used: used, Cache: cache, ElapsedNs: elapsedNs})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// awkwardStrings need every escape json.Marshal has: quote, backslash,
// the HTML set, control bytes with and without a short form, U+2028 and
// U+2029, invalid UTF-8 (replaced by U+FFFD), and non-ASCII that passes
// through.
var awkwardStrings = []string{
	"", "plain", `say "hi"`, `back\slash`, "<script>&amp;</script>", "tab\there", "nl\ncr\r", "\b\f\x00\x1f\x7f",
	"line\u2028sep\u2029", "bad\xffutf8\xc3", "caf\u00e9 \u4e16\u754c \U0001F600", "s:tagged", `\u0041`,
}

// TestQueryResponseBytesMatchStdlib holds the append encoder to the
// byte-identity contract: for random relations and for every awkward
// cell, the body equals json.Marshal of the QueryResponse built through
// EncodeRelation — so a client cannot tell which one wrote a reply.
func TestQueryResponseBytesMatchStdlib(t *testing.T) {
	type body struct {
		name      string
		rel       *engine.Relation
		used      []string
		cache     string
		elapsedNs int64
	}
	var cases []body

	rng := rand.New(rand.NewSource(19))
	var kinds []int // per column, the kind class gen draws from
	gen := func(rng *rand.Rand, col int) value.Value {
		switch kinds[col] {
		case 0:
			return value.Int(rng.Int63() - rng.Int63())
		case 1:
			return value.Float(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)))
		case 2:
			return value.Str(awkwardStrings[rng.Intn(len(awkwardStrings))])
		case 3:
			return value.Bool(rng.Intn(2) == 0)
		default:
			return value.Int(int64(rng.Intn(10)))
		}
	}
	for trial := 0; trial < 60; trial++ {
		kinds = rng.Perm(5)
		attrs := make([]string, rng.Intn(5))
		for i := range attrs {
			attrs[i] = awkwardStrings[rng.Intn(len(awkwardStrings))]
		}
		var used []string
		if trial%2 == 0 {
			used = []string{"V1", awkwardStrings[rng.Intn(len(awkwardStrings))]}
		}
		rel := engine.NewRelation(attrs...)
		for n := rng.Intn(40); n > 0; n-- {
			rel.Add(datagen.RandomRow(rng, len(attrs), gen)...)
		}
		cases = append(cases, body{fmt.Sprintf("random %d", trial), rel,
			used, []string{"hit", "miss", "bypass"}[trial%3], rng.Int63()})
	}

	strs, floats, ints, bools := engine.NewRelation("v"), engine.NewRelation("v"), engine.NewRelation("v"), engine.NewRelation("v")
	for _, s := range awkwardStrings {
		strs.Add(value.Str(s))
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1e21, 1e20, 1e-7, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()} {
		floats.Add(value.Float(f))
	}
	for _, n := range []int64{0, -1, math.MaxInt64, math.MinInt64, 1<<53 + 1} {
		ints.Add(value.Int(n))
	}
	bools.Add(value.Bool(true))
	bools.Add(value.Bool(false))
	noAttrs := engine.NewRelation()
	noAttrs.Add()
	noAttrs.Add()
	cases = append(cases,
		body{"every awkward string", strs, []string{"V"}, "hit", 1},
		body{"every awkward float", floats, []string{"V"}, "hit", 1},
		body{"every awkward int", ints, []string{"V"}, "hit", 1},
		body{"both bools", bools, []string{"V"}, "hit", 1},
		body{"empty result", engine.NewRelation("a", "b"), nil, "miss", 0},
		body{"empty result, nil attrs", &engine.Relation{}, nil, "bypass", -5},
		body{"zero attrs, two rows", noAttrs, []string{}, "hit", math.MaxInt64},
		body{"awkward attrs, used and cache", engine.NewRelation(awkwardStrings...), awkwardStrings, awkwardStrings[2], math.MinInt64},
	)

	for _, tc := range cases {
		want := stdlibBody(t, tc.rel, tc.used, tc.cache, tc.elapsedNs)
		got := appendQueryResponse(nil, tc.rel, tc.used, tc.cache, tc.elapsedNs)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: bodies differ\n got %s\nwant %s", tc.name, got, want)
		}
		// Appending after other bytes leaves them alone.
		if got := appendQueryResponse([]byte("xx"), tc.rel, tc.used, tc.cache, tc.elapsedNs); !bytes.Equal(got[2:], want) || string(got[:2]) != "xx" {
			t.Errorf("%s: appended body differs", tc.name)
		}
	}
}

// queryResponseMirror has QueryResponse's fields and tags and no methods:
// what encoding/json alone makes of a body.
type queryResponseMirror struct {
	Attrs     []string   `json:"attrs"`
	Rows      [][]string `json:"rows"`
	Used      []string   `json:"used,omitempty"`
	Cache     string     `json:"cache"`
	ElapsedNs int64      `json:"elapsed_ns"`
}

// decodeBothWays decodes data with the client's decoder and with
// json.Unmarshal and fails unless both refuse it or both produce the same
// value (nil and empty slices told apart).
func decodeBothWays(t testing.TB, data []byte) {
	t.Helper()
	var got QueryResponse
	gotErr := decodeQueryResponse(data, &got)
	var mirror queryResponseMirror
	wantErr := json.Unmarshal(data, &mirror)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: client decoder error %v, encoding/json error %v", data, gotErr, wantErr)
	}
	if want := QueryResponse(mirror); gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\nclient decoder %#v\nencoding/json  %#v", data, got, want)
	}
}

// TestQueryResponseScanTakesServerBodies checks the one-pass scanner —
// not the encoding/json hand-off — is what decodes the server's bodies
// whenever no string needed an escape, and that its cells are cut from
// one backing (two allocations however many rows).
func TestQueryResponseScanTakesServerBodies(t *testing.T) {
	r := engine.NewRelation("Cust_Id", "total", "caf\u00e9")
	for i := 0; i < 50; i++ {
		r.Add(value.Int(int64(i)), value.Float(float64(i)/4), value.Str("plain text: ok"))
	}
	for _, used := range [][]string{nil, {"VCust"}} {
		data := appendQueryResponse(nil, r, used, "hit", 12345)
		var got QueryResponse
		if !scanQueryResponse(string(data), &got) {
			t.Fatalf("scanner refused a server body: %s", data)
		}
		decodeBothWays(t, data)
		back, err := got.Relation()
		if err != nil || !engine.ResultsEqualBag(r, back) {
			t.Fatalf("relation changed over the wire: %v", err)
		}
		body := string(data)
		if n := testing.AllocsPerRun(10, func() { scanQueryResponse(body, &got) }); n > 2 {
			t.Fatalf("scanning a 50-row body allocated %.0f objects, want the cell backing and the row headers", n)
		}
	}
	// An escape anywhere hands the whole body to encoding/json.
	r.Add(value.Int(1), value.Float(1), value.Str(`quo"te`))
	data := appendQueryResponse(nil, r, nil, "hit", 1)
	if scanQueryResponse(string(data), new(QueryResponse)) {
		t.Fatal("scanner accepted a body with an escaped string")
	}
	decodeBothWays(t, data)
}

// FuzzQueryResponseDecode holds the client's decoder to encoding/json on
// arbitrary bytes: both fail or both produce the same value. The seed
// corpus (run by plain go test) holds server bodies and near misses of
// the scanner's shape.
func FuzzQueryResponseDecode(f *testing.F) {
	cells := engine.NewRelation("a", "b")
	for i, s := range awkwardStrings {
		cells.Add(value.Int(int64(i)), value.Str(s))
	}
	f.Add(appendQueryResponse(nil, cells, []string{"V1"}, "hit", 42))
	f.Add(appendQueryResponse(nil, engine.NewRelation("x"), nil, "miss", 0))
	for _, s := range []string{
		`{"attrs":["a"],"rows":[["i:1"],["i:2"]],"used":["V"],"cache":"hit","elapsed_ns":7}`,
		`{"attrs":[],"rows":[[],[]],"cache":"bypass","elapsed_ns":0}`,
		`{"attrs":["a"],"rows":[["i:1"]],"used":[],"cache":"hit","elapsed_ns":1}`,
		`{"attrs":["a"],"rows":[["i:1"]],"cache":"hit","elapsed_ns":007}`,
		`{"attrs":["a"],"rows":[["i:1"]],"cache":"hit","elapsed_ns":-3}`,
		`{"attrs":["a"],"rows":[["i:1"]],"cache":"hit","elapsed_ns":1e3}`,
		`{"attrs":["a"],"rows":[["i:1"]],"cache":"hit","elapsed_ns":9223372036854775808}`,
		`{"attrs":["a"],"rows":[["i:1"]],"cache":"hit","elapsed_ns":1} `,
		`{"attrs":["a"],"rows":[["i:1"]],"cache":"hit","elapsed_ns":1}x`,
		`{"attrs":["a"],"rows":[["i:1",]],"cache":"hit","elapsed_ns":1}`,
		`{"attrs":["a"],"rows":[["i:1"],],"cache":"hit","elapsed_ns":1}`,
		`{"attrs":["a"],"rows":[["s:` + "\xff" + `"]],"cache":"hit","elapsed_ns":1}`,
		`{"attrs":["a"],"rows":[["s:` + "\x01" + `"]],"cache":"hit","elapsed_ns":1}`,
		`{"attrs":["a"],"rows":[["s:caf` + "\u00e9\u2028" + `"]],"cache":"hit","elapsed_ns":1}`,
		`{"attrs":["a"],"rows":[["s:\u00e9"]],"cache":"hit","elapsed_ns":1}`,
		`{"attrs":null,"rows":null,"cache":"hit","elapsed_ns":1}`,
		`{"ATTRS":["a"],"rows":[["i:1"]],"cache":"hit","elapsed_ns":1}`,
		`{"rows":[["i:1"]],"attrs":["a"],"cache":"hit","elapsed_ns":1}`,
		`{"attrs":["a"],"rows":[["i:1"]],"cache":"hit","elapsed_ns":1,"extra":true}`,
		`{"attrs":["a"],"rows":[[1]],"cache":"hit","elapsed_ns":1}`,
		`{"attrs":["a"],"rows":[["i:1"]],"cache":"hit"`,
		`{"error":{"kind":"shed","message":"m"}}`,
		`[]`, `null`, ``, `{`, `{"attrs":["`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { decodeBothWays(t, data) })
}

// FuzzInsertBody feeds arbitrary /insert and /update bodies through the
// wire path (InProcessExec: decodeBody, DecodeRows, the facade's write)
// into T(I, F, S, B) — an int, a float, a string and a bool column — with
// a SUM/MIN view tracked over it. Every reply is a 2xx, after which each
// column of T still holds one kind and the view equals its definition,
// or a 4xx, after which T is at the version it was: never a 5xx, never a
// panic. The seed corpus puts each of wireValues, and each of
// malformedWireValues, into each column of an inserted row and into an
// UPDATE's SET.
func FuzzInsertBody(f *testing.F) {
	ctx := context.Background()
	row := []string{"i:1", "f:0.5", "s:a", "b:T"}
	cols := []string{"I", "F", "S", "B"}
	for i, v := range wireValues {
		r := slices.Clone(row)
		r[i%4] = EncodeValue(v)
		body, _ := json.Marshal(InsertRequest{Table: "T", Rows: [][]string{row, r}})
		f.Add(false, body)
		body, _ = json.Marshal(UpdateRequest{Table: "T", Set: cols[i%4] + " = " + v.String(), Where: "I > 0"})
		f.Add(true, body)
	}
	for i, s := range malformedWireValues {
		r := slices.Clone(row)
		r[i%4] = s
		body, _ := json.Marshal(InsertRequest{Table: "T", Rows: [][]string{r}})
		f.Add(false, body)
	}
	for _, s := range []string{
		`{"table":"T","rows":[["i:1","f:0.5","s:a"]]}`, `{"table":"Nope","rows":[]}`, `{"table":"T","rows":[]}`,
		`{"table":"T","set":"F = I / 0"}`, `{"table":"T","set":"B = FALSE, F = F * 2","where":"S = 'a'"}`, `{"table":"T","set":"nope"}`,
	} {
		f.Add(strings.Contains(s, `"set"`), []byte(s))
	}
	f.Fuzz(func(t *testing.T, update bool, body []byte) {
		sys := aggview.New()
		sys.MustLoad(`
			CREATE TABLE T(I, F, S, B);
			CREATE VIEW V AS SELECT S, SUM(I), MIN(F), COUNT(B) FROM T GROUP BY S;
		`)
		if err := sys.InsertContext(ctx, "T",
			[]aggview.Value{aggview.Int(1), aggview.Float(0.5), aggview.Str("a"), aggview.Bool(true)},
			[]aggview.Value{aggview.Int(2), aggview.Float(1.5), aggview.Str("b"), aggview.Bool(false)},
		); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.TrackViewContext(ctx, "V"); err != nil {
			t.Fatal(err)
		}
		srv := New(sys, Config{})
		defer srv.Close()
		path := "/insert"
		if update {
			path = "/update"
		}
		version := sys.DB.Version("T")
		req, _ := http.NewRequest(http.MethodPost, "http://test"+path, bytes.NewReader(body))
		resp, err := (&InProcessExec{S: srv}).Do(req)
		if err != nil {
			t.Fatal(err)
		}
		switch code := resp.StatusCode; {
		case code >= 200 && code < 300:
			tab, _ := sys.DB.Get("T")
			for c := range tab.Attrs {
				for _, r := range tab.Tuples {
					if r[c].Kind() != tab.Tuples[0][c].Kind() {
						t.Fatalf("%s %s: %d, and column %s holds %s beside %s", path, body, code, tab.Attrs[c], r[c].Kind(), tab.Tuples[0][c].Kind())
					}
				}
			}
			def, _ := sys.Views.Get("V")
			want, err := engine.NewEvaluator(sys.DB, sys.Views).ExecContext(ctx, def.Def)
			if got, _ := sys.DB.Get("V"); err != nil || !engine.ResultsEqualBag(got, want) {
				t.Fatalf("%s %s: %d, and V differs from its definition (%v)", path, body, code, err)
			}
		case code >= 400 && code < 500:
			if v := sys.DB.Version("T"); v != version {
				t.Fatalf("%s %s: %d, and T moved from version %d to %d", path, body, code, version, v)
			}
		default:
			t.Fatalf("%s %s: status %d", path, body, code)
		}
	})
}

// TestQueryColumnsBytesMatchStdlib extends the byte-identity contract to
// results as the engine hands them to the handler: typed columns of every
// kind over several chunks, from storage and out of the engine's own
// output stages — with strings that need every escape, NaN and both
// infinities, both zeros, int64s past 2^53 — and the results without rows
// or without columns.
func TestQueryColumnsBytesMatchStdlib(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1e21, 1e-7, 123456789.125, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	ints := []int64{0, -1, math.MaxInt64, math.MinInt64, 1<<53 + 1, 42}
	typed := engine.NewRelation("i", "f", "s", "b", awkwardStrings[4])
	for r := 0; r < 2500; r++ {
		typed.Add(value.Int(ints[r%len(ints)]), value.Float(floats[r%len(floats)]), value.Str(awkwardStrings[r%len(awkwardStrings)]),
			value.Bool(r%3 == 0), value.Int(int64(r%7)))
	}
	db := engine.NewDB()
	db.Put("T", typed)
	src := ir.MapSource{"T": {"i", "f", "s", "b", "g"}}
	run := func(sql string) *engine.ColTable {
		ct, err := engine.NewEvaluator(db, nil).ExecColumns(context.Background(), engine.NewPlan(ir.MustBuild(sql, src)))
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return ct
	}
	noCols := engine.NewRelation()
	noCols.Add()
	noCols.Add()
	noCols.Add()
	cases := map[string]*engine.ColTable{
		"stored":          engine.BuildColTable(typed),
		"projected":       run("SELECT i, f, s, b, g, 7, 'k', f * 2 FROM T"),
		"distinct":        run("SELECT DISTINCT g, b, s FROM T"),
		"aggregated":      run("SELECT g, b, s, SUM(f), MIN(s), MAX(i), COUNT(g), AVG(g), SUM(g) / 2 FROM T GROUP BY g, b, s"),
		"one group":       run("SELECT MIN(i), MAX(f), MIN(s) FROM T"),
		"having rejects":  run("SELECT g, SUM(g) FROM T GROUP BY g HAVING COUNT(i) < 0"),
		"no rows":         engine.BuildColTable(engine.NewRelation("a", "b")),
		"no rows, filter": run("SELECT i, s FROM T WHERE g > 100"),
		"no columns":      engine.BuildColTable(noCols),
	}
	for name, ct := range cases {
		if (ct.NumRows() == 0) != strings.HasPrefix(name, "no rows") && name != "having rejects" {
			t.Fatalf("%s: %d rows", name, ct.NumRows())
		}
		want := stdlibBody(t, ct.Relation(), []string{"V"}, "hit", 99)
		got, ok := appendQueryColumns([]byte("xx"), ct, []string{"V"}, "hit", 99)
		if !ok || !bytes.Equal(got[2:], want) || string(got[:2]) != "xx" {
			t.Errorf("%s: bodies differ (complete: %v)\n got %.300s\nwant %.300s", name, ok, got, want)
		}
		decodeBothWays(t, got[2:])
	}

	// Past the reply cap the encoder stops and says so; a body of exactly
	// the cap is sent.
	ct := cases["stored"]
	whole, _ := appendQueryColumns(nil, ct, nil, "hit", 1)
	defer func(old int64) { maxResponseBytes = old }(maxResponseBytes)
	maxResponseBytes = int64(len(whole))
	if got, ok := appendQueryColumns(nil, ct, nil, "hit", 1); !ok || !bytes.Equal(got, whole) {
		t.Errorf("a body of the cap's %d bytes was refused", len(whole))
	}
	maxResponseBytes = int64(len(whole)) / 2
	if got, ok := appendQueryColumns(nil, ct, nil, "hit", 1); ok || len(got) > len(whole)/2+256 {
		t.Errorf("past a cap of %d bytes: complete=%v after %d bytes, want the encoder to stop within a row of it", maxResponseBytes, ok, len(got))
	}
}
