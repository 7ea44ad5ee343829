// Package report defines the one machine-readable envelope every CLI
// writes: the rewrite-search trace (aggview explain -json), lint and vet
// findings (aggview lint -json, aggvet -json), oracle and mutation soaks
// (oraclerunner -json) and load soaks (loadrunner -json). A report
// carries the runtime it ran on, a pass/fail verdict, every scalar tally
// as a named count, and one list of rows whose type is the producing
// tool's own (DESIGN.md section 7 lists each tool's counts and rows).
package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// Report is the envelope of one tool run; R is the tool's row type.
type Report[R any] struct {
	// Tool names the writer ("aggview explain", "oraclerunner -mutate",
	// ...); Read refuses a report of another tool.
	Tool       string `json:"tool"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"numcpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// Seeds are the generator seeds the run is reproducible from.
	Seeds []int64 `json:"seeds,omitempty"`
	// Verdict is "pass" or "fail"; the tool exits nonzero exactly when
	// it is "fail".
	Verdict string `json:"verdict"`
	// Counts holds every scalar tally under a dotted name. A rate that
	// can be derived from counts is not stored.
	Counts map[string]int64 `json:"counts"`
	// Rows is the tool's one list (failures, findings, trace queries,
	// replayed repros), in the order the tool produced it.
	Rows  []R      `json:"rows"`
	Notes []string `json:"notes,omitempty"`
}

// New returns a passing report of tool stamped with the current runtime.
func New[R any](tool string) *Report[R] {
	return &Report[R]{
		Tool:       tool,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Verdict:    "pass",
		Counts:     map[string]int64{},
		Rows:       []R{},
	}
}

// WriteFile marshals the report, indented, to path.
func (r *Report[R]) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Read strictly decodes a report of tool from path: an unknown field, a
// different tool, a verdict other than pass/fail, or content that a
// re-marshal does not reproduce exactly (a duplicate key, a field the
// row type drops) is an error, so schema drift between writer and
// reader is caught instead of silently lost.
func Read[R any](path, tool string) (*Report[R], error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Report[R]
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("report: decoding %s: %w", path, err)
	}
	if r.Tool != tool {
		return nil, fmt.Errorf("report: %s was written by %q, want %q", path, r.Tool, tool)
	}
	if r.Verdict != "pass" && r.Verdict != "fail" {
		return nil, fmt.Errorf("report: %s has verdict %q, want pass or fail", path, r.Verdict)
	}
	var written bytes.Buffer
	if err := json.Compact(&written, data); err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	again, err := json.Marshal(&r)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(written.Bytes(), again) {
		return nil, fmt.Errorf("report: %s does not round-trip: %d bytes written, %d re-marshaled", path, written.Len(), len(again))
	}
	return &r, nil
}
