package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// Doer is the slice of http.Client the wire client needs; satisfied by
// *http.Client and by InProcessExec for transport-free testing. The
// client reads Response.ContentLength bytes of the body when that is not
// negative, as net/http defines the field: a Doer that builds its own
// Response sets it to the body's length, or to -1.
type Doer interface {
	Do(req *http.Request) (*http.Response, error)
}

// Client is a typed wire client for one tenant. Errors returned by the
// server come back as *WireError (switch on Kind); transport failures
// come back as ordinary errors.
type Client struct {
	Base   string // e.g. "http://127.0.0.1:8080"
	Tenant string
	HTTP   Doer // defaults to http.DefaultClient
}

func (c *Client) doer() Doer {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// maxResponseBytes bounds one reply, on both sides of the wire: the
// client reads no more of a body, and the /query handler answers
// response_too_large rather than encode a longer one (a variable only so
// a test can lower it).
var maxResponseBytes int64 = 64 << 20

// ErrResponseTooLarge reports a reply longer than the client reads
// (maxResponseBytes); the client returns it wrapped rather than decode a
// truncated body.
var ErrResponseTooLarge = errors.New("server: response exceeds the client limit")

// readBody reads a reply's body, at most limit bytes of it: into one
// buffer of the announced length when the reply carries one, else until
// EOF. A longer body is ErrResponseTooLarge.
func readBody(resp *http.Response, limit int64) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 {
		data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
		if err != nil || int64(len(data)) <= limit {
			return data, err
		}
		n = int64(len(data))
	}
	if n > limit {
		return nil, fmt.Errorf("%w: more than %d bytes", ErrResponseTooLarge, limit)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, data); err != nil {
		return nil, err
	}
	return data, nil
}

// exchange POSTs in as JSON (or GETs, when in is nil and method says so)
// and returns the success body, converting error bodies into *WireError.
func (c *Client) exchange(ctx context.Context, method, path string, in any) ([]byte, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.doer().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := readBody(resp, maxResponseBytes)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var eb ErrorBody
		if jerr := json.Unmarshal(data, &eb); jerr != nil || eb.Error == nil {
			return nil, fmt.Errorf("server: http %d: %s", resp.StatusCode, data)
		}
		eb.Error.Status = resp.StatusCode
		return nil, eb.Error
	}
	return data, nil
}

// roundTrip is exchange with the success body decoded into out (nil
// discards it).
func (c *Client) roundTrip(ctx context.Context, method, path string, in, out any) error {
	data, err := c.exchange(ctx, method, path, in)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// decodeQueryResponse decodes a /query success body as json.Unmarshal
// does. A body of the shape the server writes (appendQueryColumns) is
// taken apart in one scan, its strings sub-sliced from data itself, not
// from a copy: the caller hands data over and never writes it again
// (the client's is the buffer readBody filled for this reply). Any other
// input is json.Unmarshal's to accept or refuse, so the two agree on
// every input (FuzzQueryResponseDecode).
func decodeQueryResponse(data []byte, out *QueryResponse) error {
	if scanQueryResponse(unsafe.String(unsafe.SliceData(data), len(data)), out) {
		return nil
	}
	return json.Unmarshal(data, out)
}

// wireScanner reads the server's own response shape off a body: fixed
// keys in fixed order, no whitespace, and strings that stand for
// themselves (no escape, control byte or invalid UTF-8). Every string it
// returns is a substring of s, and every []string a sub-slice of cells,
// which is sized up front for all of them.
type wireScanner struct {
	s     string
	i     int
	cells []string
}

func (sc *wireScanner) lit(l string) bool {
	if !strings.HasPrefix(sc.s[sc.i:], l) {
		return false
	}
	sc.i += len(l)
	return true
}

func (sc *wireScanner) str() (string, bool) {
	s, i := sc.s, sc.i
	if i >= len(s) || s[i] != '"' {
		return "", false
	}
	start, ascii := i+1, true
	for i++; i < len(s) && s[i] != '"'; i++ {
		if c := s[i]; c == '\\' || c < 0x20 {
			return "", false
		} else if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	if i == len(s) || (!ascii && !utf8.ValidString(s[start:i])) {
		return "", false
	}
	sc.i = i + 1
	return s[start:i], true
}

func (sc *wireScanner) strs() ([]string, bool) {
	if !sc.lit("[") {
		return nil, false
	}
	start := len(sc.cells)
	for more := !sc.lit("]"); more; {
		cell, ok := sc.str()
		if !ok {
			return nil, false
		}
		sc.cells = append(sc.cells, cell)
		if more = sc.lit(","); !more && !sc.lit("]") {
			return nil, false
		}
	}
	return sc.cells[start:len(sc.cells):len(sc.cells)], true
}

// scanQueryResponse fills out from s if s is exactly what
// appendQueryColumns writes, and reports whether it was; out is
// untouched otherwise.
func scanQueryResponse(s string, out *QueryResponse) bool {
	// Each string scanned takes two quotes, so half the quotes bounds
	// the cells and the backing never moves under the rows cut from it.
	sc := wireScanner{s: s, cells: make([]string, 0, strings.Count(s, `"`)/2)}
	if !sc.lit(`{"attrs":`) {
		return false
	}
	attrs, ok := sc.strs()
	if !ok || !sc.lit(`,"rows":[`) {
		return false
	}
	rows := make([][]string, 0, cap(sc.cells)/max(len(attrs), 1))
	for more := !sc.lit("]"); more; {
		row, ok := sc.strs()
		if !ok {
			return false
		}
		rows = append(rows, row)
		if more = sc.lit(","); !more && !sc.lit("]") {
			return false
		}
	}
	var used []string
	hasUsed := sc.lit(`,"used":`)
	if hasUsed {
		if used, ok = sc.strs(); !ok {
			return false
		}
	}
	if !sc.lit(`,"cache":`) {
		return false
	}
	cache, ok := sc.str()
	if !ok || !sc.lit(`,"elapsed_ns":`) {
		return false
	}
	// A plain non-negative integer that cannot overflow; json.Unmarshal
	// settles everything else a number may be.
	digits := sc.i
	var elapsed int64
	for ; sc.i < len(s) && s[sc.i]-'0' <= 9; sc.i++ {
		elapsed = elapsed*10 + int64(s[sc.i]-'0')
	}
	if n := sc.i - digits; n == 0 || n > 18 || (n > 1 && s[digits] == '0') {
		return false
	}
	if !sc.lit("}") || sc.i != len(s) {
		return false
	}
	out.Attrs, out.Rows, out.Cache, out.ElapsedNs = attrs, rows, cache, elapsed
	if hasUsed {
		out.Used = used
	}
	return true
}

// Query runs one SELECT and returns the full response (rows still
// wire-encoded; use resp.Relation() to decode).
func (c *Client) Query(ctx context.Context, sql string) (*QueryResponse, error) {
	data, err := c.exchange(ctx, http.MethodPost, "/query", QueryRequest{Tenant: c.Tenant, SQL: sql})
	if err != nil {
		return nil, err
	}
	var resp QueryResponse
	if err := decodeQueryResponse(data, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Insert appends wire-encoded rows to a base table.
func (c *Client) Insert(ctx context.Context, table string, rows [][]string) (*InsertResponse, error) {
	var resp InsertResponse
	err := c.roundTrip(ctx, http.MethodPost, "/insert", InsertRequest{Tenant: c.Tenant, Table: table, Rows: rows}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Delete removes the rows of a base table matching a condition
// (empty deletes every row).
func (c *Client) Delete(ctx context.Context, table, where string) (*DeleteResponse, error) {
	var resp DeleteResponse
	err := c.roundTrip(ctx, http.MethodPost, "/delete", DeleteRequest{Tenant: c.Tenant, Table: table, Where: where}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Update rewrites the rows of a base table matching a condition by the
// given SET clause body.
func (c *Client) Update(ctx context.Context, table, set, where string) (*UpdateResponse, error) {
	var resp UpdateResponse
	err := c.roundTrip(ctx, http.MethodPost, "/update", UpdateRequest{Tenant: c.Tenant, Table: table, Set: set, Where: where}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// SetFaults installs (k > 0) or clears (k = 0) storage fault injection.
func (c *Client) SetFaults(ctx context.Context, k int64) error {
	return c.roundTrip(ctx, http.MethodPost, "/admin/faults", FaultsRequest{K: k}, nil)
}

// Script fetches a replayable SQL script of the server's current state.
func (c *Client) Script(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/script", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.doer().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := readBody(resp, maxResponseBytes)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("server: http %d: %s", resp.StatusCode, data)
	}
	return string(data), nil
}

// FlightRec fetches the span flight recorder's contents. The body is
// strict-decoded (unknown fields are an error) so drift between the
// server's span schema and the client's is loud, not silent.
func (c *Client) FlightRec(ctx context.Context) (*FlightRecResponse, error) {
	data, err := c.getRaw(ctx, "/debug/flightrec")
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var resp FlightRecResponse
	if err := dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("server: flightrec strict decode: %w", err)
	}
	return &resp, nil
}

// SlowLog fetches the slow-query log.
func (c *Client) SlowLog(ctx context.Context) (*SlowLogResponse, error) {
	var resp SlowLogResponse
	if err := c.roundTrip(ctx, http.MethodGet, "/debug/slowlog", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Metrics fetches the structured metrics snapshot (?format=json).
func (c *Client) Metrics(ctx context.Context) (*MetricsResponse, error) {
	var resp MetricsResponse
	if err := c.roundTrip(ctx, http.MethodGet, "/metrics?format=json", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// MetricsText fetches the sorted text rendering of /metrics; gauges
// appends the process gauges (goroutines, heap).
func (c *Client) MetricsText(ctx context.Context, gauges bool) (string, error) {
	path := "/metrics"
	if gauges {
		path += "?gauges=1"
	}
	data, err := c.getRaw(ctx, path)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// Gauge scrapes one process gauge (e.g. "server.goroutines") from the
// text metrics — the external leak probe's primitive.
func (c *Client) Gauge(ctx context.Context, name string) (int64, error) {
	text, err := c.MetricsText(ctx, true)
	if err != nil {
		return 0, err
	}
	prefix := "gauge " + name + " "
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			return strconv.ParseInt(strings.TrimPrefix(line, prefix), 10, 64)
		}
	}
	return 0, fmt.Errorf("server: gauge %q not found in /metrics", name)
}

// getRaw GETs a path and returns the raw body, mapping non-200s to
// errors.
func (c *Client) getRaw(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.doer().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := readBody(resp, maxResponseBytes)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server: http %d: %s", resp.StatusCode, data)
	}
	return data, nil
}

// Healthz pings the server.
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.doer().Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: healthz http %d", resp.StatusCode)
	}
	return nil
}
