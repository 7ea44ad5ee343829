// Package server is the multi-tenant serving facade over an
// aggview.System: a stdlib-HTTP front end that accepts SQL from many
// concurrent clients, admits requests through per-tenant token buckets
// with bounded queueing and typed shedding, answers them through a
// prepared-plan cache keyed on the canonical query key (so repeated
// query shapes skip parse-flatten-search planning), and keeps every
// cached plan transparent: a cache hit never yields an answer a fresh
// plan would not have produced at the same instant. See DESIGN.md
// section 12.
package server

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"aggview/internal/engine"
	"aggview/internal/value"
)

// The wire encoding for scalar values is a one-byte type tag, a colon,
// and the payload. Integers ride as decimal text (never through
// float64, so int64 values beyond 2^53 round-trip exactly), floats as
// strconv 'g'/-1 (shortest exact round-trip), strings verbatim after
// the tag (they may contain any byte including ':' and newlines —
// everything after the first colon is payload), and booleans as T/F.
const (
	tagInt    = 'i'
	tagFloat  = 'f'
	tagString = 's'
	tagBool   = 'b'
)

// EncodeValue renders a scalar for the wire.
func EncodeValue(v value.Value) string {
	switch v.Kind() {
	case value.KindInt:
		return "i:" + strconv.FormatInt(v.AsInt(), 10)
	case value.KindFloat:
		return "f:" + strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	case value.KindString:
		return "s:" + v.AsString()
	case value.KindBool:
		if v.AsBool() {
			return "b:T"
		}
		return "b:F"
	default:
		return "?:"
	}
}

// DecodeValue parses a wire-encoded scalar.
func DecodeValue(s string) (value.Value, error) {
	i := strings.IndexByte(s, ':')
	if i != 1 {
		return value.Value{}, fmt.Errorf("server: malformed wire value %q", s)
	}
	payload := s[2:]
	switch s[0] {
	case tagInt:
		n, err := strconv.ParseInt(payload, 10, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("server: bad int %q: %w", payload, err)
		}
		return value.Int(n), nil
	case tagFloat:
		f, err := strconv.ParseFloat(payload, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("server: bad float %q: %w", payload, err)
		}
		return value.Float(f), nil
	case tagString:
		return value.Str(payload), nil
	case tagBool:
		switch payload {
		case "T":
			return value.Bool(true), nil
		case "F":
			return value.Bool(false), nil
		}
		return value.Value{}, fmt.Errorf("server: bad bool %q", payload)
	default:
		return value.Value{}, fmt.Errorf("server: unknown wire tag %q", s[0])
	}
}

// EncodeRows renders a tuple multiset for the wire.
func EncodeRows(tuples [][]value.Value) [][]string {
	out := make([][]string, len(tuples))
	for i, t := range tuples {
		row := make([]string, len(t))
		for j, v := range t {
			row[j] = EncodeValue(v)
		}
		out[i] = row
	}
	return out
}

// DecodeRows parses wire rows back into tuples.
func DecodeRows(rows [][]string) ([][]value.Value, error) {
	out := make([][]value.Value, len(rows))
	for i, r := range rows {
		t := make([]value.Value, len(r))
		for j, s := range r {
			v, err := DecodeValue(s)
			if err != nil {
				return nil, fmt.Errorf("server: row %d col %d: %w", i, j, err)
			}
			t[j] = v
		}
		out[i] = t
	}
	return out, nil
}

// EncodeRelation renders a result relation for the wire.
func EncodeRelation(r *engine.Relation) ([]string, [][]string) {
	return append([]string{}, r.Attrs...), EncodeRows(r.Tuples)
}

// DecodeRelation parses wire attrs+rows back into a relation.
func DecodeRelation(attrs []string, rows [][]string) (*engine.Relation, error) {
	tuples, err := DecodeRows(rows)
	if err != nil {
		return nil, err
	}
	return &engine.Relation{Attrs: append([]string{}, attrs...), Tuples: tuples}, nil
}

// jsonSafe marks the bytes encoding/json writes as themselves inside a
// string (HTML escaping on, as json.Marshal has it): printable ASCII but
// for the quote, the backslash and <, >, &.
var jsonSafe = func() (safe [256]bool) {
	for b := 0x20; b < 0x7f; b++ {
		safe[b] = true
	}
	for _, b := range `"\<>&` {
		safe[b] = false
	}
	return safe
}()

// appendJSONString appends prefix+s as a JSON string, the bytes
// json.Marshal writes for it: a string of safe bytes is copied between
// quotes, any other goes through the standard library's escaping.
func appendJSONString(dst []byte, prefix, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !jsonSafe[s[i]] {
			quoted, _ := json.Marshal(prefix + s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, prefix...)
	dst = append(dst, s...)
	return append(dst, '"')
}

func appendJSONStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, "", s)
	}
	return append(dst, ']')
}

func appendWireInt(dst []byte, x int64) []byte {
	return append(strconv.AppendInt(append(dst, `"i:`...), x, 10), '"')
}

func appendWireFloat(dst []byte, x float64) []byte {
	return append(strconv.AppendFloat(append(dst, `"f:`...), x, 'g', -1, 64), '"')
}

func appendWireBool(dst []byte, x bool) []byte {
	if x {
		return append(dst, `"b:T"`...)
	}
	return append(dst, `"b:F"`...)
}

// wireCells is one chunk of one result column as the encoder walks it:
// the typed payload its kind selects (engine.ColTable.Cells).
type wireCells struct {
	kind   value.Kind
	ints   []int64
	floats []float64
	strs   []string
}

// appendQueryColumns appends the /query success body for a result,
// straight from its typed columns: a row at a time across the chunks of
// every column, the tag and the formatter chosen by the column's kind —
// byte for byte what json.Marshal writes for the QueryResponse built from
// EncodeRelation(res.Relation()), without the boxed rows or the
// [][]string in between (TestQueryResponseBytesMatchStdlib). It gives up,
// reporting false, once the body has passed maxResponseBytes: no client
// of this package would read it.
func appendQueryColumns(dst []byte, res *engine.ColTable, used []string, cache string, elapsedNs int64) ([]byte, bool) {
	start := len(dst)
	dst = appendJSONStrings(append(dst, `{"attrs":`...), res.Attrs())
	dst = append(dst, `,"rows":[`...)
	cols := make([]wireCells, len(res.Attrs()))
	for k, done, n := 0, 0, res.NumRows(); done < n; k++ {
		rows := n - done // of a result without columns; else the chunk's
		for c := range cols {
			w := &cols[c]
			w.kind, w.ints, w.floats, w.strs = res.Cells(c, k)
			rows = len(w.ints) + len(w.floats) + len(w.strs) // one of them is set
		}
		for j := 0; j < rows; j++ {
			if done+j > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			for c := range cols {
				if c > 0 {
					dst = append(dst, ',')
				}
				switch w := &cols[c]; w.kind {
				case value.KindInt:
					dst = appendWireInt(dst, w.ints[j])
				case value.KindFloat:
					dst = appendWireFloat(dst, w.floats[j])
				case value.KindString:
					dst = appendJSONString(dst, "s:", w.strs[j])
				default:
					dst = appendWireBool(dst, w.ints[j] != 0)
				}
			}
			dst = append(dst, ']')
			if int64(len(dst)-start) > maxResponseBytes {
				return dst, false
			}
		}
		done += rows
	}
	dst = append(dst, ']')
	if len(used) > 0 {
		dst = appendJSONStrings(append(dst, `,"used":`...), used)
	}
	dst = appendJSONString(append(dst, `,"cache":`...), "", cache)
	dst = strconv.AppendInt(append(dst, `,"elapsed_ns":`...), elapsedNs, 10)
	return append(dst, '}'), true
}

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	// Tenant names the quota bucket the request is admitted under;
	// empty means the default tenant.
	Tenant string `json:"tenant,omitempty"`
	// SQL is a single SELECT statement.
	SQL string `json:"sql"`
}

// QueryResponse is the success body of POST /query.
type QueryResponse struct {
	Attrs []string   `json:"attrs"`
	Rows  [][]string `json:"rows"`
	// Used names the materialized views the executed plan ranged over;
	// empty for direct evaluation.
	Used []string `json:"used,omitempty"`
	// Cache reports the plan-cache outcome: "hit", "miss", or
	// "bypass" (cache disabled).
	Cache string `json:"cache"`
	// ElapsedNs is the server-side wall time from the handler's entry to
	// the end of execution: body decode, admission wait, planning and
	// execution, but not the encoding of this response. It is the figure
	// the server.latency.* histograms and the slow-query log record.
	ElapsedNs int64 `json:"elapsed_ns"`
}

// Relation reassembles the response rows into an engine relation.
func (r *QueryResponse) Relation() (*engine.Relation, error) {
	return DecodeRelation(r.Attrs, r.Rows)
}

// InsertRequest is the body of POST /insert.
type InsertRequest struct {
	Tenant string     `json:"tenant,omitempty"`
	Table  string     `json:"table"`
	Rows   [][]string `json:"rows"`
}

// InsertResponse is the success body of POST /insert.
type InsertResponse struct {
	Inserted int `json:"inserted"`
}

// DeleteRequest is the body of POST /delete: remove the rows of Table
// matching the Where condition (the conjunctive comparison grammar of
// SELECT, without the WHERE keyword; empty deletes every row).
type DeleteRequest struct {
	Tenant string `json:"tenant,omitempty"`
	Table  string `json:"table"`
	Where  string `json:"where,omitempty"`
}

// DeleteResponse is the success body of POST /delete.
type DeleteResponse struct {
	Deleted int `json:"deleted"`
}

// UpdateRequest is the body of POST /update: rewrite the rows of Table
// matching Where by the SET clause body in Set, e.g.
// "Charge = Charge + 1, Year = 1996" (expressions see old values).
type UpdateRequest struct {
	Tenant string `json:"tenant,omitempty"`
	Table  string `json:"table"`
	Set    string `json:"set"`
	Where  string `json:"where,omitempty"`
}

// UpdateResponse is the success body of POST /update.
type UpdateResponse struct {
	Updated int `json:"updated"`
}

// FaultsRequest is the body of POST /admin/faults: K>0 installs an
// engine.FaultStorage failing from the K-th scan on; K=0 clears it.
// The load harness uses it to open and close fault windows over the
// wire.
type FaultsRequest struct {
	K int64 `json:"k"`
}

// Error taxonomy: every failure leaves the server as one of these typed
// kinds, mapped to an HTTP status. Clients switch on Kind, not on
// message text.
const (
	ErrKindBadRequest = "bad_request"        // malformed JSON, unknown table
	ErrKindBadQuery   = "bad_query"          // SQL did not parse or plan
	ErrKindShed       = "shed"               // admission refused the request
	ErrKindCanceled   = "canceled"           // deadline expired or client went away
	ErrKindBudget     = "budget"             // per-request resource budget exhausted
	ErrKindStorage    = "storage"            // storage backend failed mid-query
	ErrKindTooLarge   = "response_too_large" // the reply would exceed what a client reads
	ErrKindConflict   = "conflict"           // a write would repeat a declared key (or break an FD)
	ErrKindOverflow   = "overflow"           // an int result, a SUM or AVG total among them, passes int64
	ErrKindInternal   = "internal"
)

// WireError is the JSON error body; it implements error so clients can
// return it directly.
type WireError struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	Tenant  string `json:"tenant,omitempty"`
	// RetryAfterMs, for shed errors, is the server's estimate of when
	// retrying could succeed (also sent as the Retry-After header).
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
	// Status is the HTTP status the error was delivered with; filled by
	// the client, not serialized.
	Status int `json:"-"`
}

func (e *WireError) Error() string {
	return fmt.Sprintf("server: %s: %s", e.Kind, e.Message)
}

// ErrorBody wraps a WireError for transport.
type ErrorBody struct {
	Error *WireError `json:"error"`
}
