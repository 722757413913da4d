package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"sand/internal/obs"
)

// AssertionResult is one evaluated assertion in a report.
type AssertionResult struct {
	// Expr is the assertion as written in the scenario file.
	Expr string `json:"expr"`
	// AtSec is the virtual evaluation time; AtEnd marks end-of-run checks.
	AtSec float64 `json:"at_sec,omitempty"`
	AtEnd bool    `json:"at_end,omitempty"`
	OK    bool    `json:"ok"`
	// Observed is the metric's value at evaluation time.
	Observed float64 `json:"observed"`
	// Err reports evaluation problems (unknown metric).
	Err string `json:"err,omitempty"`
}

// WorkloadReport summarizes the trainsim run a sim scenario carried.
type WorkloadReport struct {
	Pipeline   string  `json:"pipeline"`
	Model      string  `json:"model"`
	TotalSec   float64 `json:"total_sec"`
	IdealSec   float64 `json:"ideal_sec"`
	GPUUtil    float64 `json:"gpu_util"`
	CPUUtil    float64 `json:"cpu_util"`
	AvgIterSec float64 `json:"avg_iter_sec"`
	Stalls     int     `json:"stalls"`
	WANBytes   float64 `json:"wan_bytes,omitempty"`
}

// ClusterReport summarizes a real-engine run.
type ClusterReport struct {
	Nodes   int `json:"nodes"`
	Workers int `json:"workers"`
	// Batches is the number of fleet-served batches read.
	Batches int `json:"batches"`
	// Digest is sha256 over the ordered per-batch hashes — the run's
	// data identity.
	Digest string `json:"digest"`
	// BytesIdentical reports whether every batch matched the single-node
	// baseline (false when compare_baseline is off).
	BytesIdentical bool `json:"bytes_identical"`
	// Compared is the number of batches checked against the baseline.
	Compared int `json:"compared"`
}

// Report is the deterministic JSON record of one scenario run: same
// scenario file and seed, same bytes. It deliberately contains no
// wall-clock timestamps and (in sim mode) only virtual-time quantities.
type Report struct {
	Scenario    string `json:"scenario"`
	Description string `json:"description,omitempty"`
	File        string `json:"file,omitempty"`
	Kind        string `json:"kind"`
	Seed        int64  `json:"seed"`
	Pass        bool   `json:"pass"`
	// VirtualSec is the clock value when the run finished (sim mode).
	VirtualSec float64 `json:"virtual_sec,omitempty"`
	// SimEvents counts simulator events executed (sim mode).
	SimEvents int64 `json:"sim_events,omitempty"`
	// NodeStates is the final registry census by state name.
	NodeStates map[string]int `json:"node_states,omitempty"`
	// EventsFired counts declared events that fired.
	EventsFired int `json:"events_fired"`
	// ChaosInjected / ChaosRecovered count seeded chaos faults.
	ChaosInjected  int `json:"chaos_injected,omitempty"`
	ChaosRecovered int `json:"chaos_recovered,omitempty"`
	// Reannounces counts nodes rejoining after death/partition.
	Reannounces int `json:"reannounces,omitempty"`

	Workload *WorkloadReport `json:"workload,omitempty"`
	Cluster  *ClusterReport  `json:"cluster,omitempty"`

	Assertions []AssertionResult `json:"assertions"`

	// Metrics is the final metric snapshot (sim mode only — cluster runs
	// carry real-time histograms that would break report determinism).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// finishAssertions folds assertion outcomes into the pass verdict.
func (r *Report) finishAssertions() {
	r.Pass = true
	for _, a := range r.Assertions {
		if !a.OK {
			r.Pass = false
		}
	}
}

// metricsFrom copies a snapshot into the report's metric map.
func (r *Report) metricsFrom(snap *obs.Snapshot) {
	r.Metrics = map[string]float64{}
	names := snap.Names()
	sort.Strings(names)
	for _, n := range names {
		v, _ := snap.Get(n)
		r.Metrics[n] = v
	}
}

// WriteJSON writes the report as stable, indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Summary renders the one-line human verdict.
func (r *Report) Summary() string {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	failed := 0
	for _, a := range r.Assertions {
		if !a.OK {
			failed++
		}
	}
	return fmt.Sprintf("%s %s (%s): %d/%d assertions ok",
		verdict, r.Scenario, r.Kind, len(r.Assertions)-failed, len(r.Assertions))
}

// SaveReport writes <name>.report.json into dir (created if missing)
// and returns the path.
func SaveReport(dir string, r *Report) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.Scenario+".report.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := r.WriteJSON(f); err != nil {
		return "", err
	}
	return path, f.Close()
}

// dumpTrace writes the scenario's trace ring as a Chrome trace
// (<name>.trace.json) when an assertion fails. Returns the path ("" when
// the tracer is disabled or empty).
func dumpTrace(dir, name string, tr *obs.Tracer) (string, error) {
	if !tr.Enabled() || tr.Len() == 0 {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := tr.WriteChromeTrace(f); err != nil {
		return "", err
	}
	return path, f.Close()
}
