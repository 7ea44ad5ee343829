package benchjson

import (
	"encoding/json"
	"os"
	"runtime"
)

// MutateFailure is one violation found by the mutation soak: the
// shrunk, replayable mutation script plus where it was found.
type MutateFailure struct {
	// Seed is the generator seed the violation came from.
	Seed int64 `json:"seed"`
	// Trial is the scenario index within the seed's stream.
	Trial int `json:"trial"`
	// Fault tags where in the checker the violation surfaced
	// (e.g. "mutate:step=3:view=V0", "maintain@2:step=1:aborted:view=V0",
	// "mutate:concurrent:reader=1:torn-view").
	Fault string `json:"fault,omitempty"`
	// Detail is the human-readable violation description.
	Detail string `json:"detail"`
	// Script is the shrunk SQL mutation repro (replayable with
	// oracle.ReplayMutation, `oraclerunner -mutate -replay`, or fed to
	// `aggserve -script`).
	Script string `json:"script"`
	// Lint carries the IR soundness linter's findings on the shrunk
	// script's setup, to speed up triage.
	Lint []LintDiagnostic `json:"lint,omitempty"`
}

// MutateReport is the machine-readable emission of one oraclerunner
// mutation soak: flat like OracleReport, so trajectory tooling can
// diff runs.
type MutateReport struct {
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"numcpu"`
	GoVersion  string  `json:"go_version"`
	Seeds      []int64 `json:"seeds"`
	Trials     int     `json:"trials"`
	// MultiChunk counts the scenarios whose largest base table started
	// out spanning at least three storage chunks.
	MultiChunk int `json:"multi_chunk"`
	Steps      int `json:"steps"`
	FaultRuns  int `json:"fault_runs,omitempty"`
	// Incremental counts tracked views maintained by counting deltas
	// across the soak — a coverage signal that the scenarios actually
	// exercised the incremental path, not just recomputes.
	Incremental int `json:"incremental"`
	// Modes counts the trials in which some tracked view was maintained in
	// each mode — "incremental", or "recompute:<reason>" with the
	// maintain.Fallback that decided it — so a clean soak says which
	// shapes of the maintainer's patch and rebuild paths it exercised.
	Modes    map[string]int  `json:"modes"`
	Failures []MutateFailure `json:"failures"`
}

// NewMutate returns a report stamped with the current runtime
// configuration.
func NewMutate() *MutateReport {
	return &MutateReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Modes:      map[string]int{},
		Failures:   []MutateFailure{},
	}
}

// WriteFile marshals the report, indented, to path.
func (r *MutateReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
