package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const killRecoverDoc = `
name: kill_recover
seed: 3
duration: 10s
fleet:
  heartbeat_every: 500ms
  suspect_after: 1s
  dead_after: 3s
  nodes:
    - id: n0
    - id: n1
    - id: n2
events:
  - at: 2s
    action: kill_node
    target: n2
  - at: 6s
    action: recover_node
    target: n2
assertions:
  - at: 5.5s
    assert: nodes.dead == 1
  - at_end: true
    assert: nodes.healthy == 3
  - at_end: true
    assert: fleet.reannounces >= 1
  - at_end: true
    assert: events.fired == 2
`

func mustParse(t *testing.T, doc string) *Scenario {
	t.Helper()
	sc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestRunSimKillRecover(t *testing.T) {
	rep, trace, err := Run(mustParse(t, killRecoverDoc), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("run failed: %+v", rep.Assertions)
	}
	if trace != "" {
		t.Fatalf("passing run wrote a flight-recorder trace: %s", trace)
	}
	if rep.Kind != "sim" || rep.VirtualSec < 10 || rep.EventsFired != 2 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.NodeStates["healthy"] != 3 {
		t.Fatalf("final census: %v", rep.NodeStates)
	}
}

// TestRunSimDeterministic is the contract SCENARIOS.md promises: the
// same scenario file produces byte-identical reports run after run.
func TestRunSimDeterministic(t *testing.T) {
	render := func() []byte {
		rep, _, err := Run(mustParse(t, killRecoverDoc), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := render()
	for i := 0; i < 3; i++ {
		if next := render(); !bytes.Equal(first, next) {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i+2, first, next)
		}
	}
}

func TestRunSimWorkloadReport(t *testing.T) {
	rep, _, err := Run(mustParse(t, `
name: tiny_workload
seed: 9
fleet:
  nodes:
    - id: n0
workload:
  pipeline: sand
  model: slowfast
  epochs: 2
  iters_per_epoch: 5
assertions:
  - at_end: true
    assert: workload.iters_done == 10
`), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("run failed: %+v", rep.Assertions)
	}
	w := rep.Workload
	if w == nil || w.Pipeline != "sand" || w.Model != "slowfast" {
		t.Fatalf("workload report: %+v", w)
	}
	if w.TotalSec <= 0 || w.GPUUtil <= 0 || w.GPUUtil > 1 {
		t.Fatalf("workload figures: %+v", w)
	}
	if rep.Metrics["workload.iters_done"] != 10 {
		t.Fatalf("metrics: %v", rep.Metrics)
	}
}

// A failing assertion must trip the flight recorder: the trace ring is
// dumped as a Chrome trace next to the report.
func TestFlightRecorderOnFailure(t *testing.T) {
	dir := t.TempDir()
	sc := mustParse(t, strings.Replace(killRecoverDoc,
		"assert: nodes.healthy == 3", "assert: nodes.healthy == 99", 1))
	rep, trace, err := Run(sc, RunOptions{ReportDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("expected assertion failure")
	}
	if trace == "" {
		t.Fatal("flight recorder did not write a trace")
	}
	if filepath.Dir(trace) != dir {
		t.Fatalf("trace written outside report dir: %s", trace)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("traceEvents")) {
		t.Fatalf("trace is not Chrome trace format: %.120s", data)
	}
}

// TestRunClusterCorpus runs every cluster-mode file in scenarios/ on
// real engines: each must pass and, where it compares against the
// single-node baseline, serve byte-identical batches through kills and
// drains. node_death_mid_epoch then runs again and must reproduce its
// report byte for byte.
func TestRunClusterCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	render := func(t *testing.T, file string) (*Scenario, *Report, []byte) {
		t.Helper()
		sc, err := Load(file)
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := Run(sc, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return sc, rep, buf.Bytes()
	}
	ran := 0
	for _, file := range files {
		if sc, err := Load(file); err != nil || sc.Kind() != "cluster" {
			continue
		}
		ran++
		name := strings.TrimSuffix(filepath.Base(file), ".yaml")
		t.Run(name, func(t *testing.T) {
			sc, rep, first := render(t, file)
			if !rep.Pass {
				t.Fatalf("run failed: %+v", rep.Assertions)
			}
			if sc.Cluster.compareBaseline() && !rep.Cluster.BytesIdentical {
				t.Fatalf("fleet-served batches differ from the baseline: %+v", rep.Cluster)
			}
			if name != "node_death_mid_epoch" {
				return
			}
			if _, _, again := render(t, file); !bytes.Equal(first, again) {
				t.Fatalf("replay diverged:\n%s\nvs\n%s", first, again)
			}
		})
	}
	if ran == 0 {
		t.Fatal("no cluster-mode scenarios found")
	}
}

func TestSaveReport(t *testing.T) {
	dir := t.TempDir()
	rep, _, err := Run(mustParse(t, killRecoverDoc), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path, err := SaveReport(dir, rep)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "kill_recover.report.json" {
		t.Fatalf("report path: %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"scenario": "kill_recover"`, `"pass": true`, `"assertions"`} {
		if !bytes.Contains(data, []byte(field)) {
			t.Fatalf("report missing %s:\n%s", field, data)
		}
	}
}
