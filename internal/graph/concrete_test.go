package graph

import (
	"math/rand"
	"strings"
	"testing"

	"sand/internal/augment"
	"sand/internal/config"
	"sand/internal/frame"
)

// taskWithPipeline builds a validated task: resize(64x64) then
// random_crop(48x48) then flip, the canonical action-recognition pipeline.
func taskWithPipeline(t testing.TB, tag string, frames, stride int) *config.Task {
	t.Helper()
	task := &config.Task{
		Tag:         tag,
		Source:      config.SourceFile,
		DatasetPath: "/data/shared",
		Sampling:    config.Sampling{VideosPerBatch: 2, FramesPerVideo: frames, FrameStride: stride, SamplesPerVideo: 1},
		Stages: []config.Stage{
			{
				Name: "resize", Type: config.BranchSingle,
				Inputs: []string{"frame"}, Outputs: []string{"a0"},
				Ops: []config.OpSpec{{Op: "resize", Params: map[string]any{"shape": []any{64, 64}}}},
			},
			{
				Name: "crop", Type: config.BranchSingle,
				Inputs: []string{"a0"}, Outputs: []string{"a1"},
				Ops: []config.OpSpec{{Op: "random_crop", Params: map[string]any{"shape": []any{48, 48}}}},
			},
			{
				Name: "rand", Type: config.BranchRandom,
				Inputs: []string{"a1"}, Outputs: []string{"a2"},
				Branches: []config.SubBranch{
					{Prob: 0.5, Ops: []config.OpSpec{{Op: "flip", Params: map[string]any{"flip_prob": 1.0}}}},
					{Prob: 0.5},
				},
			},
		},
	}
	if err := task.Validate(); err != nil {
		t.Fatal(err)
	}
	return task
}

func testVideos(n int) []VideoMeta {
	vids := make([]VideoMeta, n)
	for i := range vids {
		vids[i] = VideoMeta{
			Name: "v" + string(rune('0'+i)), Frames: 120,
			W: 96, H: 96, C: 3, GOP: 30, EncodedBytes: 50000,
		}
	}
	return vids
}

func TestResolveStages(t *testing.T) {
	task := taskWithPipeline(t, "t1", 8, 4)
	rng := rand.New(rand.NewSource(1))
	ops, reversed, err := ResolveStages(task, config.TrainState{}, 96, 96, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if reversed {
		t.Fatal("unexpected reversal")
	}
	// resize + crop always; flip sometimes.
	if len(ops) < 2 || len(ops) > 3 {
		t.Fatalf("resolved %d ops", len(ops))
	}
	if ops[0].Op.Name() != "resize" {
		t.Fatalf("first op %s", ops[0].Op.Name())
	}
	if ops[1].Op.Name() != "crop" {
		t.Fatalf("second op %s (random_crop must resolve to a fixed crop)", ops[1].Op.Name())
	}
	for _, op := range ops {
		if !op.Op.Deterministic() {
			t.Fatalf("resolved op %s still stochastic", op.Op.Name())
		}
		if op.Sig == "" {
			t.Fatal("missing signature")
		}
	}

	// A stage whose input view nothing produces cannot be walked.
	task.Stages[1].Inputs = []string{"ghost"}
	_, _, err = ResolveStages(task, config.TrainState{}, 96, 96, nil, rng)
	if err == nil || !strings.Contains(err.Error(), `input "ghost" unresolved`) {
		t.Fatalf("unresolved input: err = %v", err)
	}
}

func TestResolveStagesSharedWindow(t *testing.T) {
	task := taskWithPipeline(t, "t1", 8, 4)
	rng := rand.New(rand.NewSource(2))
	win := CropWindow{X: 8, Y: 8, W: 48, H: 48}
	for i := 0; i < 50; i++ {
		ops, _, err := ResolveStages(task, config.TrainState{}, 96, 96, &win, rng)
		if err != nil {
			t.Fatal(err)
		}
		sig := ops[1].Sig
		if sig != "crop(8,8,48x48)" {
			t.Fatalf("crop escaped shared window: %s", sig)
		}
	}
}

func TestResolveStagesConditional(t *testing.T) {
	task := &config.Task{
		Tag: "cond", Source: config.SourceFile, DatasetPath: "/d",
		Sampling: config.Sampling{VideosPerBatch: 1, FramesPerVideo: 4, FrameStride: 1, SamplesPerVideo: 1},
		Stages: []config.Stage{{
			Name: "c", Type: config.BranchConditional,
			Inputs: []string{"frame"}, Outputs: []string{"o"},
			Branches: []config.SubBranch{
				{Condition: "epoch > 10", Ops: []config.OpSpec{{Op: "inv_sample", Params: map[string]any{}}}},
				{Condition: "else"},
			},
		}},
	}
	if err := task.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	_, rev, err := ResolveStages(task, config.TrainState{Epoch: 5}, 32, 32, nil, rng)
	if err != nil || rev {
		t.Fatalf("epoch 5 should not reverse: rev=%v err=%v", rev, err)
	}
	_, rev, err = ResolveStages(task, config.TrainState{Epoch: 11}, 32, 32, nil, rng)
	if err != nil || !rev {
		t.Fatalf("epoch 11 should reverse: rev=%v err=%v", rev, err)
	}
}

func TestBuildChunkPlanSharing(t *testing.T) {
	tasks := []TaskSpec{
		{Task: taskWithPipeline(t, "slowfast", 8, 4)},
		{Task: taskWithPipeline(t, "mae", 8, 2)},
	}
	vids := testVideos(3)
	coord, err := BuildChunkPlan(tasks, vids, PlanParams{Epochs: 3, Coordinate: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	uncoord, err := BuildChunkPlan(tasks, vids, PlanParams{Epochs: 3, Coordinate: false, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Sample count: tasks x epochs x videos x samples_per_video.
	wantSamples := 2 * 3 * 3 * 1
	if len(coord.Samples) != wantSamples || len(uncoord.Samples) != wantSamples {
		t.Fatalf("samples coord=%d uncoord=%d want %d", len(coord.Samples), len(uncoord.Samples), wantSamples)
	}
	// Coordination must reduce distinct decoded frames.
	coordDecodes := coord.OpCounts()["decode"]
	uncoordDecodes := uncoord.OpCounts()["decode"]
	if coordDecodes >= uncoordDecodes {
		t.Fatalf("coordination did not reduce decodes: %d vs %d", coordDecodes, uncoordDecodes)
	}
	if coord.SharedFrameHits == 0 {
		t.Fatal("no shared frame hits under coordination")
	}
}

func TestBuildChunkPlanCoverage(t *testing.T) {
	// Data access rule: every video used exactly once per task per epoch
	// (x samples_per_video).
	tasks := []TaskSpec{{Task: taskWithPipeline(t, "a", 4, 2)}}
	tasks[0].Task.Sampling.SamplesPerVideo = 2
	vids := testVideos(4)
	plan, err := BuildChunkPlan(tasks, vids, PlanParams{Epochs: 2, Coordinate: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		task  string
		epoch int
		video string
	}
	counts := map[key]int{}
	for _, s := range plan.Samples {
		counts[key{s.Task, s.Epoch, s.Video}]++
	}
	for _, v := range vids {
		for e := 0; e < 2; e++ {
			if got := counts[key{"a", e, v.Name}]; got != 2 {
				t.Fatalf("video %s epoch %d used %d times, want samples_per_video=2", v.Name, e, got)
			}
		}
	}
}

func TestChunkPlanGraphStructure(t *testing.T) {
	tasks := []TaskSpec{{Task: taskWithPipeline(t, "a", 4, 2)}}
	plan, err := BuildChunkPlan(tasks, testVideos(1), PlanParams{Epochs: 1, Coordinate: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := plan.Graphs["v0"]
	if g == nil {
		t.Fatal("missing graph for v0")
	}
	if g.Root.Kind != KindVideo || g.Root.Size() != 0 {
		t.Fatalf("root wrong: %+v", g.Root)
	}
	// Every sample leaf must be a leaf node with Uses >= 1 and geometry
	// 48x48x3 (after crop). Linear pipelines have exactly one chain.
	for _, s := range plan.Samples {
		if len(s.Chains) != 1 {
			t.Fatalf("linear pipeline produced %d chains", len(s.Chains))
		}
		if len(s.Leaves[0]) != len(s.FrameIndices) {
			t.Fatalf("sample has %d leaves for %d frames", len(s.Leaves[0]), len(s.FrameIndices))
		}
		for _, l := range s.Leaves[0] {
			if l.Uses < 1 {
				t.Fatal("leaf with zero uses")
			}
			if l.W != 48 || l.H != 48 || l.C != 3 {
				t.Fatalf("leaf geometry %dx%dx%d", l.W, l.H, l.C)
			}
		}
	}
	// Tree invariant: children's Parent pointers are correct, and node
	// count matches a fresh walk.
	seen := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		seen++
		for _, c := range n.Children {
			if c.Parent != n {
				t.Fatal("parent pointer broken")
			}
			walk(c)
		}
	}
	walk(g.Root)
	if seen != g.NodeCount() {
		t.Fatalf("walk found %d nodes, counter says %d", seen, g.NodeCount())
	}
}

func TestChunkPlanValidation(t *testing.T) {
	tasks := []TaskSpec{{Task: taskWithPipeline(t, "a", 4, 2)}}
	if _, err := BuildChunkPlan(nil, testVideos(1), PlanParams{Epochs: 1}); err == nil {
		t.Fatal("accepted no tasks")
	}
	if _, err := BuildChunkPlan(tasks, nil, PlanParams{Epochs: 1}); err == nil {
		t.Fatal("accepted no videos")
	}
	if _, err := BuildChunkPlan(tasks, testVideos(1), PlanParams{Epochs: 0}); err == nil {
		t.Fatal("accepted zero epochs")
	}
}

func TestMarkLeavesCachedAndBytes(t *testing.T) {
	tasks := []TaskSpec{{Task: taskWithPipeline(t, "a", 4, 2)}}
	plan, err := BuildChunkPlan(tasks, testVideos(1), PlanParams{Epochs: 1, Coordinate: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := plan.Graphs["v0"]
	bytes := g.CachedBytes()
	if bytes <= 0 {
		t.Fatal("no cached bytes with leaves cached")
	}
	// With all leaves cached, recompute cost must be zero.
	if rc := g.RecomputeCost(); rc != 0 {
		t.Fatalf("recompute cost %v with all leaves cached", rc)
	}
	// Frontier equals the set of leaves.
	for _, n := range g.Frontier() {
		if !n.IsLeaf() {
			t.Fatal("frontier contains non-leaf before pruning")
		}
	}
	// Materialization cost is positive (something must be built).
	if mc := g.MaterializationCost(); mc <= 0 {
		t.Fatalf("materialization cost %v", mc)
	}
}

func TestOpCountsCoordinationReduction(t *testing.T) {
	// Figure 16's mechanism: multi-task coordination cuts decode and
	// random-crop executions substantially.
	tasks := []TaskSpec{
		{Task: taskWithPipeline(t, "slowfast", 8, 4)},
		{Task: taskWithPipeline(t, "mae", 8, 4)},
	}
	vids := testVideos(4)
	coord, err := BuildChunkPlan(tasks, vids, PlanParams{Epochs: 2, Coordinate: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	uncoord, err := BuildChunkPlan(tasks, vids, PlanParams{Epochs: 2, Coordinate: false, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cc, uc := coord.OpCounts(), uncoord.OpCounts()
	if cc["decode"] == 0 || uc["decode"] == 0 {
		t.Fatalf("op counts missing decode: %v %v", cc, uc)
	}
	reduction := 1 - float64(cc["decode"])/float64(uc["decode"])
	if reduction < 0.2 {
		t.Fatalf("decode reduction only %.1f%%; expected substantial sharing", reduction*100)
	}
	if cc["crop"] >= uc["crop"] {
		t.Fatalf("crop ops not reduced: %d vs %d", cc["crop"], uc["crop"])
	}
}

func TestDefaultCostModel(t *testing.T) {
	cm := DefaultCostModel()
	vm := VideoMeta{W: 10, H: 10, C: 3}
	if cm.DecodeCost(vm, 2) != 8.0*300*2 {
		t.Fatalf("decode cost = %v", cm.DecodeCost(vm, 2))
	}
	if cm.OpCost("resize", 100) != 400 {
		t.Fatalf("resize cost = %v", cm.OpCost("resize", 100))
	}
	if cm.OpCost("unknown_op", 100) != 100 {
		t.Fatalf("default op cost = %v", cm.OpCost("unknown_op", 100))
	}
}

func TestNodeKindString(t *testing.T) {
	if KindVideo.String() != "video" || KindFrame.String() != "frame" || KindAug.String() != "aug" {
		t.Fatal("kind strings wrong")
	}
}

func TestLastOpName(t *testing.T) {
	cases := map[string]string{
		"crop(1,2,3x4)":                      "crop",
		"resize(8x8,bilinear)|crop(0,0,4x4)": "crop",
		"hflip(1.000)":                       "hflip",
		"noparen":                            "noparen",
	}
	for sig, want := range cases {
		if got := lastOpName(sig); got != want {
			t.Errorf("lastOpName(%q) = %q, want %q", sig, got, want)
		}
	}
}

// TestOpOutputGeometryMatchesApply: the geometry the planner, the merge
// validation and the engine's reuse layer track through an op must be
// the geometry the op actually produces, for every registered op.
func TestOpOutputGeometryMatchesApply(t *testing.T) {
	params := map[string]augment.Params{
		"resize":      {"shape": []any{12, 20}},
		"crop":        {"shape": []any{8, 10}, "x": 2, "y": 3},
		"center_crop": {"shape": []any{8, 10}},
		"random_crop": {"shape": []any{8, 10}},
		"rotate90":    {"turns": 1},
		"pad":         {"left": 1, "top": 2, "right": 3, "bottom": 4},
	}
	for _, name := range augment.Names() {
		op, err := augment.Build(name, params[name])
		if err != nil {
			t.Fatalf("%s: %v (give it params here)", name, err)
		}
		clip, err := frame.NewClip([]*frame.Frame{frame.New(24, 16, 3)})
		if err != nil {
			t.Fatal(err)
		}
		out, err := op.Apply(clip, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w, h, c := out.Geometry()
		if gw, gh, gc := OpOutputGeometry(op, 24, 16, 3); gw != w || gh != h || gc != c {
			t.Errorf("%s: OpOutputGeometry = %dx%dx%d, Apply produced %dx%dx%d", name, gw, gh, gc, w, h, c)
		}
	}
}
