package benchjson

import (
	"encoding/json"
	"os"
	"runtime"

	"aggview/internal/obs"
)

// OracleFailure is one equivalence violation found by a soak run: the
// shrunk, replayable script plus where it was found.
type OracleFailure struct {
	// Seed is the generator seed the violation came from.
	Seed int64 `json:"seed"`
	// Trial is the instance index within the seed's stream.
	Trial int `json:"trial"`
	// Workers is the engine worker count the violation appeared at.
	Workers int `json:"workers"`
	// Used names the views of the offending rewriting.
	Used []string `json:"used,omitempty"`
	// Detail is the human-readable violation description.
	Detail string `json:"detail"`
	// Script is the shrunk SQL repro (replayable with oracle.Replay or
	// `oraclerunner -replay`).
	Script string `json:"script"`
	// Lint carries the IR soundness linter's findings on the shrunk
	// script (the same checks as `aggview lint`): catalog hazards and
	// per-view usability records that speed up triage of the repro.
	Lint []LintDiagnostic `json:"lint,omitempty"`
	// Metrics is the engine-metrics snapshot taken at failure time —
	// before shrinking — so the repro carries the cache and worker
	// state the violation was actually observed under.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Closure is the closure cache's state at failure time.
	Closure *CacheCounters `json:"closure_cache,omitempty"`
}

// OracleReport is the machine-readable emission of one oraclerunner
// soak: flat like Report, so trajectory tooling can diff runs.
type OracleReport struct {
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"numcpu"`
	GoVersion  string  `json:"go_version"`
	Seeds      []int64 `json:"seeds"`
	Instances  int     `json:"instances"`
	// MultiChunk counts the instances whose largest base table spanned
	// at least three storage chunks.
	MultiChunk    int             `json:"multi_chunk"`
	Rewritings    int             `json:"rewritings"`
	FaultRuns     int             `json:"fault_runs,omitempty"`
	PaperFaithful bool            `json:"paper_faithful"`
	Failures      []OracleFailure `json:"failures"`
	// Closure carries the closure-cache counters accumulated over the
	// whole soak.
	Closure *CacheCounters `json:"closure_cache,omitempty"`
}

// NewOracle returns a report stamped with the current runtime
// configuration.
func NewOracle() *OracleReport {
	return &OracleReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Failures:   []OracleFailure{},
	}
}

// WriteFile marshals the report, indented, to path.
func (r *OracleReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
