// Command sandbench regenerates every table and figure of the SAND
// paper's evaluation (§7) from this reproduction's planner, engine and
// simulator. Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records paper-vs-measured for all of them.
//
// Usage:
//
//	sandbench                 # run everything
//	sandbench -fig 12         # one figure (2,3,4,5,11..20)
//	sandbench -table 3        # Table 3 (lines of preprocessing code)
//	sandbench -list           # list experiments
//	sandbench -fig 12 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
)

// experiment is one reproducible figure/table.
type experiment struct {
	id    string
	title string
	run   func() error
}

var experiments []experiment

func register(id, title string, run func() error) {
	experiments = append(experiments, experiment{id: id, title: title, run: run})
}

func main() {
	fig := flag.String("fig", "", "figure number to run (e.g. 12, 19); empty = all")
	table := flag.String("table", "", "table number to run (e.g. 3)")
	exp := flag.String("exp", "", "experiment id to run (e.g. ablation-k, fignaive)")
	list := flag.Bool("list", false, "list experiments and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is stable
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	sort.Slice(experiments, func(i, j int) bool { return experiments[i].id < experiments[j].id })
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-8s %s\n", e.id, e.title)
		}
		return
	}
	want := ""
	switch {
	case *fig != "":
		want = "fig" + *fig
	case *table != "":
		want = "table" + *table
	case *exp != "":
		want = *exp
	}
	ran := 0
	for _, e := range experiments {
		if want != "" && e.id != want {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", e.id, e.title)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matches %q; use -list\n", want)
		os.Exit(2)
	}
}
