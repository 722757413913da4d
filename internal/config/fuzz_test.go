package config

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadTaskSeeds returns the FuzzLoadTask corpus: every scenario file
// (whole documents; LoadTask rejects them, which exercises the parser
// and the missing-section errors) and every task config embedded as a
// raw string in the examples and the sandserve CLI.
func loadTaskSeeds(tb testing.TB) []string {
	tb.Helper()
	var seeds []string
	scenarios, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil {
		tb.Fatal(err)
	}
	goSrcs, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.go"))
	if err != nil {
		tb.Fatal(err)
	}
	goSrcs = append(goSrcs, filepath.Join("..", "..", "cmd", "sandserve", "main.go"))
	raw := regexp.MustCompile("(?s)`([^`]*)`")
	for _, path := range append(scenarios, goSrcs...) {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		if strings.HasSuffix(path, ".yaml") {
			seeds = append(seeds, string(data))
			continue
		}
		for _, m := range raw.FindAllStringSubmatch(string(data), -1) {
			if strings.Contains(m[1], "dataset:") {
				seeds = append(seeds, m[1])
			}
		}
	}
	return seeds
}

// taskSignature renders everything LoadTask fills in, ops by their
// Signature, so two loads of one document can be compared.
func taskSignature(t *Task) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%s|%s|%+v", t.Tag, t.Source, t.DatasetPath, t.Sampling)
	ops := func(list []OpSpec) {
		for _, op := range list {
			sb.WriteString(" " + op.Signature())
		}
	}
	for _, st := range t.Stages {
		fmt.Fprintf(&sb, "\n%s %s %q -> %q:", st.Name, st.Type, st.Inputs, st.Outputs)
		ops(st.Ops)
		for _, br := range st.Branches {
			fmt.Fprintf(&sb, "\n  [%q %v]", br.Condition, br.Prob)
			ops(br.Ops)
		}
	}
	return sb.String()
}

// FuzzLoadTask holds the task parser to its contract on any document:
// it never panics, a task it accepts passes Validate, and loading the
// same document twice yields the same task, op signatures included.
func FuzzLoadTask(f *testing.F) {
	seeds := loadTaskSeeds(f)
	if len(seeds) == 0 {
		f.Fatal("no seed documents found")
	}
	for _, src := range seeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		task, err := LoadTask(src)
		if err != nil {
			return
		}
		if err := task.Validate(); err != nil {
			t.Fatalf("LoadTask accepted a task Validate rejects: %v", err)
		}
		again, err := LoadTask(src)
		if err != nil {
			t.Fatalf("second load failed: %v", err)
		}
		if a, b := taskSignature(task), taskSignature(again); a != b {
			t.Fatalf("two loads differ:\n%s\n---\n%s", a, b)
		}
	})
}
