// Command sandsim runs declarative fault-injection scenarios against
// the SAND stack (see internal/scenario and SCENARIOS.md). A scenario
// file declares a fleet, an optional workload, timed fault events,
// seeded random chaos, and assertions; sandsim executes it — on a
// virtual clock (sim mode) or against real engines (cluster mode) —
// and writes a deterministic JSON report per scenario.
//
// Usage:
//
//	sandsim run scenarios/*.yaml              # run, print PASS/FAIL summary
//	sandsim run -report-dir out s.yaml        # also write JSON reports + traces
//	sandsim run -json s.yaml                  # print the full report to stdout
//	sandsim list scenarios                    # table: name, kind, description
//	sandsim validate scenarios/*.yaml         # parse + validate only (fast lint)
//
// Exit status: 0 when every scenario passes (or validates), 1 when any
// assertion fails or a file is invalid.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"

	"sand/internal/scenario"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: sandsim <command> [args]

commands:
  run [-report-dir dir] [-json] <file>...   run scenarios, summarize pass/fail
  list <dir-or-file>...                     list scenarios (name, kind, description)
  validate <file>...                        parse and validate only
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "list":
		err = cmdList(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sandsim: %v\n", err)
		os.Exit(1)
	}
}

// expand resolves arguments to scenario files: directories contribute
// their *.yaml entries, sorted for stable ordering.
func expand(args []string) ([]string, error) {
	var out []string
	for _, a := range args {
		st, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			out = append(out, a)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(a, "*.yaml"))
		if err != nil {
			return nil, err
		}
		sort.Strings(matches)
		out = append(out, matches...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scenario files given")
	}
	return out, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	reportDir := fs.String("report-dir", "", "write <name>.report.json (and failure traces) here")
	asJSON := fs.Bool("json", false, "print each full report as JSON to stdout")
	_ = fs.Parse(args)
	files, err := expand(fs.Args())
	if err != nil {
		return err
	}
	failed := 0
	for _, f := range files {
		sc, err := scenario.Load(f)
		if err != nil {
			return err
		}
		rep, tracePath, err := scenario.Run(sc, scenario.RunOptions{ReportDir: *reportDir})
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		if !rep.Pass {
			failed++
		}
		fmt.Println(rep.Summary())
		for _, a := range rep.Assertions {
			mark := "ok  "
			if !a.OK {
				mark = "FAIL"
			}
			detail := fmt.Sprintf("observed %g", a.Observed)
			if a.Err != "" {
				detail = a.Err
			}
			fmt.Printf("  %s %-44s %s\n", mark, a.Expr, detail)
		}
		if *reportDir != "" {
			path, err := scenario.SaveReport(*reportDir, rep)
			if err != nil {
				return err
			}
			fmt.Printf("  report: %s\n", path)
			if tracePath != "" {
				fmt.Printf("  trace: %s\n", tracePath)
			}
		}
		if *asJSON {
			if err := rep.WriteJSON(os.Stdout); err != nil {
				return err
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", failed, len(files))
	}
	fmt.Printf("all %d scenarios passed\n", len(files))
	return nil
}

func cmdList(args []string) error {
	if len(args) == 0 {
		args = []string{"scenarios"}
	}
	files, err := expand(args)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "NAME\tKIND\tSEED\tFILE\tDESCRIPTION")
	for _, f := range files {
		sc, err := scenario.Load(f)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%s\n", sc.Name, sc.Kind(), sc.Seed, f, sc.Description)
	}
	return w.Flush()
}

func cmdValidate(args []string) error {
	files, err := expand(args)
	if err != nil {
		return err
	}
	bad := 0
	for _, f := range files {
		if _, err := scenario.Load(f); err != nil {
			fmt.Printf("INVALID %s: %v\n", f, err)
			bad++
			continue
		}
		fmt.Printf("ok      %s\n", f)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d scenario files invalid", bad, len(files))
	}
	return nil
}
