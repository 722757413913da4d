package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func baseTask() *Task {
	return &Task{
		Tag:         "t",
		Source:      SourceFile,
		DatasetPath: "/data",
		Sampling:    Sampling{VideosPerBatch: 4, FramesPerVideo: 8, FrameStride: 2, SamplesPerVideo: 1},
	}
}

func TestValidateBase(t *testing.T) {
	if err := baseTask().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Task)
	}{
		{"missing tag", func(t *Task) { t.Tag = "" }},
		{"bad source", func(t *Task) { t.Source = "carrier-pigeon" }},
		{"missing path", func(t *Task) { t.DatasetPath = "" }},
		{"zero batch", func(t *Task) { t.Sampling.VideosPerBatch = 0 }},
		{"zero stride", func(t *Task) { t.Sampling.FrameStride = 0 }},
		{"negative stride", func(t *Task) { t.Sampling.FrameStride = -1 }},
		{"unknown branch type", func(t *Task) {
			t.Stages = []Stage{{Name: "x", Type: "loop", Inputs: []string{"frame"}, Outputs: []string{"o"}}}
		}},
		{"missing inputs", func(t *Task) {
			t.Stages = []Stage{{Name: "x", Type: BranchSingle, Outputs: []string{"o"}, Ops: []OpSpec{{Op: "resize"}}}}
		}},
		{"unwired input", func(t *Task) {
			t.Stages = []Stage{{Name: "x", Type: BranchSingle, Inputs: []string{"ghost"}, Outputs: []string{"o"}, Ops: []OpSpec{{Op: "resize"}}}}
		}},
		{"single without ops", func(t *Task) {
			t.Stages = []Stage{{Name: "x", Type: BranchSingle, Inputs: []string{"frame"}, Outputs: []string{"o"}}}
		}},
		{"conditional without else", func(t *Task) {
			t.Stages = []Stage{{Name: "x", Type: BranchConditional, Inputs: []string{"frame"}, Outputs: []string{"o"},
				Branches: []SubBranch{{Condition: "iteration > 5"}}}}
		}},
		{"else not last", func(t *Task) {
			t.Stages = []Stage{{Name: "x", Type: BranchConditional, Inputs: []string{"frame"}, Outputs: []string{"o"},
				Branches: []SubBranch{{Condition: "else"}, {Condition: "iteration > 5"}}}}
		}},
		{"bad condition", func(t *Task) {
			t.Stages = []Stage{{Name: "x", Type: BranchConditional, Inputs: []string{"frame"}, Outputs: []string{"o"},
				Branches: []SubBranch{{Condition: "moon == full"}, {Condition: "else"}}}}
		}},
		{"random probs not 1", func(t *Task) {
			t.Stages = []Stage{{Name: "x", Type: BranchRandom, Inputs: []string{"frame"}, Outputs: []string{"o"},
				Branches: []SubBranch{{Prob: 0.5}, {Prob: 0.2}}}}
		}},
		{"random prob out of range", func(t *Task) {
			t.Stages = []Stage{{Name: "x", Type: BranchRandom, Inputs: []string{"frame"}, Outputs: []string{"o"},
				Branches: []SubBranch{{Prob: 1.5}, {Prob: -0.5}}}}
		}},
		{"multi outputs mismatch", func(t *Task) {
			t.Stages = []Stage{{Name: "x", Type: BranchMulti, Inputs: []string{"frame"}, Outputs: []string{"a", "b"},
				Branches: []SubBranch{{}}}}
		}},
		{"merge single input", func(t *Task) {
			t.Stages = []Stage{{Name: "x", Type: BranchMerge, Inputs: []string{"frame"}, Outputs: []string{"o"}}}
		}},
		{"duplicate output", func(t *Task) {
			t.Stages = []Stage{
				{Name: "a", Type: BranchSingle, Inputs: []string{"frame"}, Outputs: []string{"o"}, Ops: []OpSpec{{Op: "resize"}}},
				{Name: "b", Type: BranchSingle, Inputs: []string{"o"}, Outputs: []string{"o"}, Ops: []OpSpec{{Op: "resize"}}},
			}
		}},
	}
	for _, c := range cases {
		task := baseTask()
		c.mut(task)
		if err := task.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid task", c.name)
		}
	}
}

func TestValidateMultiMerge(t *testing.T) {
	task := baseTask()
	task.Stages = []Stage{
		{Name: "split", Type: BranchMulti, Inputs: []string{"frame"}, Outputs: []string{"a", "b"},
			Branches: []SubBranch{{Ops: []OpSpec{{Op: "resize"}}}, {Ops: []OpSpec{{Op: "grayscale"}}}}},
		{Name: "join", Type: BranchMerge, Inputs: []string{"a", "b"}, Outputs: []string{"merged"}},
	}
	if err := task.Validate(); err != nil {
		t.Fatal(err)
	}
	if task.FinalOutput() != "merged" {
		t.Fatalf("final output = %q", task.FinalOutput())
	}
}

func TestParseCondition(t *testing.T) {
	c, err := ParseCondition("iteration > 10000")
	if err != nil {
		t.Fatal(err)
	}
	if !c.Eval(TrainState{Iteration: 10001}) || c.Eval(TrainState{Iteration: 10000}) {
		t.Fatal("'>' evaluation wrong")
	}
	cases := []struct {
		expr  string
		state TrainState
		want  bool
	}{
		{"epoch < 5", TrainState{Epoch: 4}, true},
		{"epoch < 5", TrainState{Epoch: 5}, false},
		{"epoch <= 5", TrainState{Epoch: 5}, true},
		{"epoch >= 5", TrainState{Epoch: 5}, true},
		{"epoch == 5", TrainState{Epoch: 5}, true},
		{"epoch != 5", TrainState{Epoch: 5}, false},
		{"iteration >= 100", TrainState{Iteration: 99}, false},
	}
	for _, tc := range cases {
		c, err := ParseCondition(tc.expr)
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		if got := c.Eval(tc.state); got != tc.want {
			t.Errorf("%s with %+v = %v, want %v", tc.expr, tc.state, got, tc.want)
		}
	}
	for _, bad := range []string{"", "iteration >", "iteration > x", "cpu > 5", "iteration ~ 5", "a b c d"} {
		if _, err := ParseCondition(bad); err == nil {
			t.Errorf("ParseCondition(%q) accepted invalid expression", bad)
		}
	}
}

func TestOpSpecSignature(t *testing.T) {
	a := OpSpec{Op: "resize", Params: map[string]any{"shape": []any{256, 320}, "interpolation": "bilinear"}}
	b := OpSpec{Op: "resize", Params: map[string]any{"interpolation": "bilinear", "shape": []any{256, 320}}}
	if a.Signature() != b.Signature() {
		t.Fatalf("signatures differ for key order: %q vs %q", a.Signature(), b.Signature())
	}
	c := OpSpec{Op: "resize", Params: map[string]any{"shape": []any{128, 128}}}
	if a.Signature() == c.Signature() {
		t.Fatal("different params share a signature")
	}
	empty := OpSpec{Op: "grayscale"}
	if empty.Signature() != "grayscale{}" {
		t.Fatalf("empty signature = %q", empty.Signature())
	}
}

func TestLoadTaskErrors(t *testing.T) {
	cases := []string{
		"not: a task",                           // missing dataset
		"dataset:\n  tag: x",                    // missing fields
		"dataset:\n  augmentation: 3\n  tag: t", // augmentation not a list
	}
	for _, src := range cases {
		if _, err := LoadTask(src); err == nil {
			t.Errorf("LoadTask(%q) accepted invalid config", src)
		}
	}
}

func TestLoadTaskDefaultsSamplesPerVideo(t *testing.T) {
	src := `
dataset:
  tag: "t"
  input_source: file
  video_dataset_path: /data
  sampling:
    videos_per_batch: 2
    frames_per_video: 4
    frame_stride: 2
`
	task, err := LoadTask(src)
	if err != nil {
		t.Fatal(err)
	}
	if task.Sampling.SamplesPerVideo != 1 {
		t.Fatalf("samples_per_video default = %d, want 1", task.Sampling.SamplesPerVideo)
	}
}

func TestLoadTaskFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "task.yaml")
	src := `
dataset:
  tag: "filetask"
  input_source: file
  video_dataset_path: /data
  sampling:
    videos_per_batch: 2
    frames_per_video: 4
    frame_stride: 2
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	task, err := LoadTaskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if task.Tag != "filetask" {
		t.Fatalf("tag = %q", task.Tag)
	}
	if _, err := LoadTaskFile(filepath.Join(dir, "missing.yaml")); err == nil {
		t.Fatal("LoadTaskFile accepted missing file")
	}
	bad := filepath.Join(dir, "bad.yaml")
	os.WriteFile(bad, []byte("dataset:\n  tag: x"), 0o644)
	if _, err := LoadTaskFile(bad); err == nil || !strings.Contains(err.Error(), "bad.yaml") {
		t.Fatalf("LoadTaskFile error should name the file: %v", err)
	}
}

func TestPaperTypoConditonKey(t *testing.T) {
	// Figure 9 in the paper spells the key "conditon"; accept both.
	src := `
dataset:
  tag: "t"
  input_source: file
  video_dataset_path: /data
  sampling:
    videos_per_batch: 2
    frames_per_video: 4
    frame_stride: 2
  augmentation:
  - name: "cond"
    branch_type: "conditional"
    inputs: ["frame"]
    outputs: ["o"]
    branches:
    - conditon: "iteration > 10"
      config:
      - inv_sample: true
    - condition: "else"
      config: None
`
	task, err := LoadTask(src)
	if err != nil {
		t.Fatal(err)
	}
	if task.Stages[0].Branches[0].Condition != "iteration > 10" {
		t.Fatalf("typo'd condition not accepted: %+v", task.Stages[0].Branches[0])
	}
}
