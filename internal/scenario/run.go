package scenario

import (
	"sand/internal/obs"
)

// RunOptions tunes scenario execution.
type RunOptions struct {
	// ReportDir, when set, receives the scenario's own trace ring,
	// written as <name>.trace.json (Chrome trace format), if any
	// assertion fails.
	ReportDir string
}

// Run executes a parsed scenario in its declared mode and returns the
// deterministic report plus the path of the scenario's trace ring,
// written as <name>.trace.json ("" when all assertions passed or
// ReportDir is unset). An error return means the
// scenario could not run at all — assertion failures are reported in
// Report.Pass, not as errors.
func Run(sc *Scenario, opts RunOptions) (*Report, string, error) {
	tracer := obs.NewTracer(1 << 14)
	tracer.Enable()
	var (
		rep *Report
		err error
	)
	if sc.Kind() == "cluster" {
		rep, err = runCluster(sc, tracer)
	} else {
		rep, err = runSim(sc, tracer)
	}
	if err != nil {
		return nil, "", err
	}
	tracePath := ""
	if !rep.Pass && opts.ReportDir != "" {
		// Persist the trace ring next to the report so a failed run can
		// be inspected in a trace viewer.
		tracePath, err = dumpTrace(opts.ReportDir, sc.Name, tracer)
		if err != nil {
			return rep, "", err
		}
	}
	return rep, tracePath, nil
}
