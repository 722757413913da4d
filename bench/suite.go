package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"sand/internal/metrics"
)

// summary is one metric over a set of runs.
type summary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound,omitempty"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// spread is the inter-quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	d := (s.Q3 - s.Q1) / s.Median
	if d < 0 {
		return -d
	}
	return d
}

func summarize(def metricDef, values []float64) summary {
	q1, q3 := quartiles(values)
	return summary{Unit: def.Unit, Better: def.Better, Bound: def.Bound,
		N: len(values), Median: median(values), Q1: q1, Q3: q3, Values: values}
}

// workloadResult is everything the suite learned about one workload.
type workloadResult struct {
	Attempted      int64              `json:"attempted"`
	Failed         int64              `json:"failed"`
	FailedOpsRatio float64            `json:"failed_ops_ratio"`
	EndToEnd       map[string]summary `json:"end_to_end"`
	PerLayer       map[string]summary `json:"per_layer"`
	Harness        map[string]float64 `json:"harness"` // medians over the untraced runs
}

// suiteResult is bench/out/results.json: one schema for every workload
// and metric, so a trajectory across commits is a diff of these files.
type suiteResult struct {
	Schema    string                     `json:"schema"`
	Runs      int                        `json:"runs"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Quick     bool                       `json:"quick"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

const resultSchema = "sand-bench/1"

// cmdSuite runs every workload (or one) -runs times untraced, each run a
// fresh child process with its own seed, then once traced; it writes
// results.json and prints the table.
func cmdSuite(args []string) error {
	fs := flag.NewFlagSet("suite", flag.ContinueOnError)
	runs := fs.Int("runs", 5, "untraced runs per workload")
	seed := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	only := fs.String("workload", "", "run only this workload")
	quick := fs.Bool("quick", false, "tiny corpus and a short window (smoke test)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	seconds := float64(runSeconds)
	if *quick {
		seconds = quickSeconds
	}
	out := filepath.Join(benchDir, "out", "results.json")
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	res := &suiteResult{Schema: resultSchema, Runs: *runs, Seed: *seed, Seconds: seconds, Quick: *quick,
		Workloads: map[string]*workloadResult{}}
	for _, w := range workloads(*quick) {
		if *only != "" && w.Name != *only {
			continue
		}
		child := func(seed int64, trace int) (*resultLine, map[string]float64, error) {
			a := []string{"one", "-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace)}
			if *quick {
				a = append(a, "-quick")
			}
			return runChild(exe, a)
		}
		wr := &workloadResult{EndToEnd: map[string]summary{}, PerLayer: map[string]summary{}, Harness: map[string]float64{}}
		values := map[string][]float64{}
		harness := map[string][]float64{}
		for i := 0; i < *runs; i++ {
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d (seed %d)\n", w.Name, i+1, *runs, *seed+int64(i))
			line, h, err := child(*seed+int64(i), 0)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.Name, i+1, err)
			}
			wr.Attempted += line.Attempted
			wr.Failed += line.Failed
			for name, mv := range line.Metrics {
				values[name] = append(values[name], mv.Value)
			}
			for name, v := range h {
				harness[name] = append(harness[name], v)
			}
		}
		for _, def := range endToEnd {
			wr.EndToEnd[def.Name] = summarize(def, values[def.Name])
		}
		for name, vs := range harness {
			wr.Harness[name] = median(vs)
		}
		wr.FailedOpsRatio = div(float64(wr.Failed), float64(wr.Attempted))
		fmt.Fprintf(os.Stderr, "bench: %s traced run\n", w.Name)
		line, _, err := child(*seed, 1)
		if err != nil {
			return fmt.Errorf("%s traced run: %w", w.Name, err)
		}
		for _, def := range perLayer {
			wr.PerLayer[def.Name] = summarize(def, []float64{line.Metrics[def.Name].Value})
		}
		res.Workloads[w.Name] = wr
	}
	if len(res.Workloads) == 0 {
		return fmt.Errorf("unknown workload %q", *only)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	printTable(res)
	fmt.Printf("\nwrote %s; Chrome traces are %s\n", out, filepath.Join(benchDir, "out", "trace_<workload>.json"))
	return nil
}

// runChild runs one `one` invocation and parses its last two lines (the
// harness fields, then the result).
func runChild(exe string, args []string) (*resultLine, map[string]float64, error) {
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if runErr != nil {
		return nil, nil, fmt.Errorf("%w: %s", runErr, lines[len(lines)-1])
	}
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("child printed no result")
	}
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, nil, fmt.Errorf("child result: %w", err)
	}
	var harness map[string]float64
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &harness); err != nil {
		return nil, nil, fmt.Errorf("child harness fields: %w", err)
	}
	return &line, harness, nil
}

func printTable(res *suiteResult) {
	f := func(v float64) string { return fmt.Sprintf("%.4f", v) }
	for _, w := range workloads(res.Quick) {
		wr := res.Workloads[w.Name]
		if wr == nil {
			continue
		}
		fmt.Printf("\n== %s — %s\n", w.Name, w.Why)
		fmt.Printf("   %d reads attempted, %d failed (failed_ops_ratio %.6f); corpus_gen_s %.2f, verify_s %.2f, window_s %.2f, batches %.0f\n",
			wr.Attempted, wr.Failed, wr.FailedOpsRatio,
			wr.Harness["corpus_gen_s"], wr.Harness["verify_s"], wr.Harness["window_s"], wr.Harness["batches"])
		t := metrics.NewTable("end-to-end", "metric", "unit", "median", "q1", "q3", "n", "spread")
		for _, def := range endToEnd {
			s := wr.EndToEnd[def.Name]
			t.AddRow(def.Name, s.Unit, f(s.Median), f(s.Q1), f(s.Q3), s.N, metrics.Pct(s.spread()))
		}
		t.Render(os.Stdout)
		t = metrics.NewTable("per-layer (traced run)", "metric", "unit", "value")
		for _, def := range perLayer {
			s := wr.PerLayer[def.Name]
			t.AddRow(def.Name, s.Unit, f(s.Median))
		}
		t.Render(os.Stdout)
	}
}
