package main

import (
	"encoding/json"
	"fmt"
	"os"

	"sand/internal/metrics"
)

// verdict classifies one (workload, end-to-end metric) row of B against
// A. worse is B's median relative to A's, positive when B is worse;
// spread is the wider of the two sets' inter-quartile spreads.
//
//   - regressed: worse by more than the bound, and by more than the spread;
//   - unresolved: the spread exceeds the bound, so "within the bound"
//     cannot be told from noise;
//   - improved: better by more than the spread;
//   - unchanged: everything else.
func verdict(a, b summary, bound float64) (v string, worse, spread float64) {
	spread = a.spread()
	if s := b.spread(); s > spread {
		spread = s
	}
	if a.Median != 0 {
		worse = (b.Median - a.Median) / a.Median
		if a.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case worse > bound && worse > spread:
		v = "regressed"
	case spread > bound:
		v = "unresolved"
	case -worse > spread && worse != 0:
		v = "improved"
	default:
		v = "unchanged"
	}
	return v, worse, spread
}

func readSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultSchema)
	}
	return &r, nil
}

// cmdCompare applies the end-to-end bounds (BENCHMARK.json's; a
// self-test keeps the two equal) to two result files, one row per
// workload and metric. It fails on any regression and on a higher
// failed_ops_ratio.
func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare A.json B.json")
	}
	a, err := readSuite(args[0])
	if err != nil {
		return err
	}
	b, err := readSuite(args[1])
	if err != nil {
		return err
	}
	rows, bad := compareSuites(a, b)
	t := metrics.NewTable("B against A", "workload", "metric", "A median", "B median", "worse", "spread", "bound", "verdict")
	for _, r := range rows {
		t.AddRow(r...)
	}
	t.Render(os.Stdout)
	if bad > 0 {
		return fmt.Errorf("%d rows regressed or missing", bad)
	}
	return nil
}

// compareSuites returns the table rows and how many of them fail the
// comparison. A workload or metric that either file lacks is a failure:
// a set that lost a row must not pass for want of anything to compare.
func compareSuites(a, b *suiteResult) (rows [][]any, bad int) {
	for _, w := range workloads(false) {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			bad++
			rows = append(rows, []any{w.Name, "", "", "", "", "", "", "missing"})
			continue
		}
		for _, def := range endToEnd {
			sa, sb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			if sa.N == 0 || sb.N == 0 {
				bad++
				rows = append(rows, []any{w.Name, def.Name, "", "", "", "", "", "missing"})
				continue
			}
			v, worse, spread := verdict(sa, sb, def.Bound)
			if v == "regressed" {
				bad++
			}
			rows = append(rows, []any{w.Name, def.Name, fmt.Sprintf("%.4f", sa.Median), fmt.Sprintf("%.4f", sb.Median),
				metrics.Pct(worse), metrics.Pct(spread), metrics.Pct(def.Bound), v})
		}
		if wb.FailedOpsRatio > wa.FailedOpsRatio {
			bad++
			rows = append(rows, []any{w.Name, "failed_ops_ratio", wa.FailedOpsRatio, wb.FailedOpsRatio, "", "", "", "regressed"})
		}
	}
	return rows, bad
}
