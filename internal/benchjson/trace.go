// Package benchjson defines the machine-readable reports the CLIs
// write: the rewrite-search trace (aggview explain -json), lint and vet
// findings (aggview lint -json, aggvet -json), oracle and mutation soaks
// (oraclerunner -json) and load and telemetry soaks (loadrunner).
package benchjson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"aggview/internal/obs"
)

// CacheCounters is a cache's cumulative hit/miss/eviction counters at
// snapshot time, embedded by the trace and oracle reports
// (callers convert from constraints.CacheStats).
type CacheCounters struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
}

// TraceView is the usability verdict of one registered view for one
// query: the per-condition failure reasons when unusable (the C1–C4
// analysis of core.ExplainUsability).
type TraceView struct {
	View     string   `json:"view"`
	Mappings int      `json:"mappings"`
	Usable   bool     `json:"usable"`
	Failures []string `json:"failures,omitempty"`
}

// TraceQuery is the full rewrite-search trace of one query: wave
// bookkeeping, every analyzed candidate in serial commit order and the
// per-view usability summary.
type TraceQuery struct {
	Query       string          `json:"query"`
	Waves       int             `json:"waves"`
	Jobs        int             `json:"jobs"`
	MaxFrontier int             `json:"max_frontier"`
	Rewritings  int             `json:"rewritings"`
	Views       []TraceView     `json:"views"`
	Candidates  []obs.Candidate `json:"candidates"`
}

// TraceReport is the machine-readable emission of `aggview explain
// -trace -json`: one TraceQuery per SELECT in the script, plus the
// closure-cache counters accumulated over the whole run.
type TraceReport struct {
	GoVersion string         `json:"go_version"`
	File      string         `json:"file,omitempty"`
	Queries   []TraceQuery   `json:"queries"`
	Closure   *CacheCounters `json:"closure_cache,omitempty"`
}

// NewTrace returns a report stamped with the current runtime.
func NewTrace() *TraceReport {
	return &TraceReport{GoVersion: runtime.Version(), Queries: []TraceQuery{}}
}

// WriteFile marshals the report, indented, to path.
func (r *TraceReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadTrace strictly decodes a TraceReport: unknown fields are an
// error, so schema drift between writer and reader is caught instead of
// silently dropped.
func ReadTrace(path string) (*TraceReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r TraceReport
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("benchjson: decoding trace %s: %w", path, err)
	}
	return &r, nil
}

// Validate checks the report's internal consistency: verdict
// membership, wave bounds and the accept/rewriting correspondence. A
// report that round-trips through WriteFile/ReadTrace and passes
// Validate carries a lossless trace.
func (r *TraceReport) Validate() error {
	for qi := range r.Queries {
		q := &r.Queries[qi]
		if q.Query == "" {
			return fmt.Errorf("benchjson: trace query %d has no SQL", qi)
		}
		accepts := 0
		for ci, c := range q.Candidates {
			switch c.Verdict {
			case obs.VerdictAccept:
				if c.Rewriting == "" {
					return fmt.Errorf("benchjson: query %d candidate %d accepted without a rewriting", qi, ci)
				}
				if c.Reason == "" {
					accepts++
				}
			case obs.VerdictReject:
				if c.Reason == "" {
					return fmt.Errorf("benchjson: query %d candidate %d rejected without a reason", qi, ci)
				}
			case obs.VerdictDedup:
			default:
				return fmt.Errorf("benchjson: query %d candidate %d has unknown verdict %q", qi, ci, c.Verdict)
			}
			if c.Wave < 0 || c.Wave > q.Waves {
				return fmt.Errorf("benchjson: query %d candidate %d wave %d outside [0,%d]", qi, ci, c.Wave, q.Waves)
			}
		}
		if accepts != q.Rewritings {
			return fmt.Errorf("benchjson: query %d lists %d rewritings but %d committed accepts", qi, q.Rewritings, accepts)
		}
	}
	return nil
}

// RoundTrips re-marshals the report and compares it byte-for-byte with
// a strict re-decode, proving the JSON schema loses nothing.
func (r *TraceReport) RoundTrips() error {
	first, err := json.Marshal(r)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(first))
	dec.DisallowUnknownFields()
	var again TraceReport
	if err := dec.Decode(&again); err != nil {
		return fmt.Errorf("benchjson: trace does not re-decode strictly: %w", err)
	}
	second, err := json.Marshal(&again)
	if err != nil {
		return err
	}
	if !bytes.Equal(first, second) {
		return fmt.Errorf("benchjson: trace round-trip is lossy: %d vs %d bytes", len(first), len(second))
	}
	return nil
}
