// Command bench is the repository's one end-to-end benchmark: it boots
// real SAND nodes in-process, reads training batches through
// fleet.Router -> viewserver wire -> vfs -> engine the way a trainer
// does, checks every payload against a reference engine, and reports
// end-to-end metrics plus a per-layer attribution measured from outside
// the engine. See README.md.
//
//	go run ./bench one --workload W --seed N --seconds S --trace 0|1
//	go run ./bench suite [-runs N] [-seed S] [-workload W] [-quick]
//	go run ./bench compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	args := os.Args[1:]
	cmd := "suite"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "one":
		err = cmdOne(args)
	case "suite":
		err = cmdSuite(args)
	case "compare":
		err = cmdCompare(args)
	default:
		err = fmt.Errorf("unknown command %q (want one, suite or compare)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// resultLine is the last line `one` prints: the driver's contract.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// benchDir is where the corpus cache (.cache/) and the results and traces
// (out/) go, relative to the repository root the commands are run from.
const benchDir = "bench"

// cmdOne runs one workload once and prints two lines: how the run itself
// went (corpus_gen_s, verify_s, window_s, batches), then the
// result. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones, from a run that also records the
// bench's spans and writes a Chrome trace.
func cmdOne(args []string) error {
	fs := flag.NewFlagSet("one", flag.ContinueOnError)
	cfg := runConfig{Dir: benchDir}
	fs.StringVar(&cfg.Workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.Seed, "seed", 1, "corpus and plan seed")
	fs.Float64Var(&cfg.Seconds, "seconds", runSeconds, "length of the timed window")
	trace := fs.Int("trace", 0, "1 records spans and prints per-layer metrics")
	fs.BoolVar(&cfg.Quick, "quick", false, "tiny corpus (smoke test; numbers mean nothing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.Workload == "" {
		return fmt.Errorf("one: -workload is required")
	}
	cfg.Trace = *trace != 0

	res, err := runOnce(cfg)
	if res != nil {
		h, _ := json.Marshal(res.Harness)
		fmt.Printf("%s\n", h)
		// A run that failed for any reason is not a correct measurement.
		line := resultLine{Correct: res.Correct && err == nil, Attempted: res.Attempted, Failed: res.Failed}
		if cfg.Trace {
			line.Metrics = pick(perLayer, res.PerLayer)
		} else {
			line.Metrics = pick(endToEnd, res.EndToEnd)
		}
		out, _ := json.Marshal(line)
		fmt.Printf("%s\n", out)
	}
	return err
}
