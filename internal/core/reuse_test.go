package core

import (
	"fmt"
	"testing"

	"sand/internal/codec"
	"sand/internal/config"
	"sand/internal/dataset"
	"sand/internal/frame"
)

// TestCropRectMath pins the rectangle predicates the reuse planner is
// built on: strict overlap (shared edges don't count, one shared pixel
// does) and bounding-box union.
func TestCropRectMath(t *testing.T) {
	a := cropRect{0, 0, 32, 32}
	cases := []struct {
		b    cropRect
		want bool
	}{
		{cropRect{16, 16, 32, 32}, true}, // plain overlap
		{cropRect{31, 31, 33, 33}, true}, // exactly one shared pixel
		{cropRect{32, 0, 16, 16}, false}, // shared vertical edge
		{cropRect{0, 32, 16, 16}, false}, // shared horizontal edge
		{cropRect{32, 32, 8, 8}, false},  // shared corner
		{cropRect{40, 40, 8, 8}, false},  // disjoint
		{cropRect{8, 8, 8, 8}, true},     // fully contained
		{cropRect{0, 0, 32, 32}, true},   // identical
		{cropRect{-8, -8, 9, 9}, true},   // 1-pixel overlap from the other corner
	}
	for _, tc := range cases {
		if got := a.overlaps(tc.b); got != tc.want {
			t.Errorf("overlaps(%v, %v) = %v, want %v", a, tc.b, got, tc.want)
		}
		if got := tc.b.overlaps(a); got != tc.want {
			t.Errorf("overlaps not symmetric for %v, %v", a, tc.b)
		}
	}
	u := a.union(cropRect{16, 24, 32, 32})
	if u != (cropRect{0, 0, 48, 56}) {
		t.Fatalf("union = %v, want {0 0 48 56}", u)
	}
	if u = a.union(cropRect{8, 8, 8, 8}); u != a {
		t.Fatalf("union with contained rect = %v, want %v", u, a)
	}
}

// overlapTask builds a prefix -> multi(crop branches) -> merge pipeline:
// several views of the same intermediate, each a crop stage given by op
// specs.
func overlapTask(t testing.TB, tag string, prefix config.OpSpec, branches []config.OpSpec) *config.Task {
	t.Helper()
	outs := make([]string, len(branches))
	subs := make([]config.SubBranch, len(branches))
	for i, spec := range branches {
		outs[i] = fmt.Sprintf("v%d", i)
		subs[i] = config.SubBranch{Ops: []config.OpSpec{spec}}
	}
	task := &config.Task{
		Tag:         tag,
		Source:      config.SourceFile,
		DatasetPath: "/data/mini",
		Sampling:    config.Sampling{VideosPerBatch: 2, FramesPerVideo: 4, FrameStride: 2, SamplesPerVideo: 1},
		Stages: []config.Stage{
			{
				Name: "prefix", Type: config.BranchSingle,
				Inputs: []string{"frame"}, Outputs: []string{"base"},
				Ops: []config.OpSpec{prefix},
			},
			{
				Name: "views", Type: config.BranchMulti,
				Inputs: []string{"base"}, Outputs: outs,
				Branches: subs,
			},
			{
				Name: "join", Type: config.BranchMerge,
				Inputs: outs, Outputs: []string{"merged"},
			},
		},
	}
	if err := task.Validate(); err != nil {
		t.Fatal(err)
	}
	return task
}

func crop(h, w, x, y int) config.OpSpec {
	return config.OpSpec{Op: "crop", Params: map[string]any{"shape": []any{h, w}, "x": x, "y": y}}
}

// resize64 is the overlap fixtures' usual prefix: 48x48 sources grow to
// 64x64 before the views crop them.
var resize64 = config.OpSpec{Op: "resize", Params: map[string]any{"shape": []any{64, 64}}}

// TestSupersetByteIdentical: for fixed, centered, shared-origin random
// and padded crop views — including a 1-pixel overlap — every batch must
// equal the oracle's under every oracleEnv, and the superset path must
// fire. Each case runs over moving, perfectly static and spatially
// partial motion sources; subtests over the moving dataset carry the
// bare case name.
func TestSupersetByteIdentical(t *testing.T) {
	cases := []struct {
		name     string
		prefix   config.OpSpec
		branches []config.OpSpec
	}{
		{"fixed", resize64, []config.OpSpec{crop(48, 48, 0, 0), crop(48, 48, 16, 16), crop(48, 48, 8, 0), crop(48, 48, 0, 8)}},
		{"one-pixel", resize64, []config.OpSpec{crop(32, 32, 0, 0), crop(32, 32, 31, 31)}},
		{"centered", resize64, []config.OpSpec{
			{Op: "center_crop", Params: map[string]any{"shape": []any{48, 48}}},
			crop(48, 48, 0, 0),
		}},
		{"random", resize64, []config.OpSpec{
			{Op: "random_crop", Params: map[string]any{"shape": []any{48, 48}}},
			{Op: "random_crop", Params: map[string]any{"shape": []any{48, 48}}},
			{Op: "random_crop", Params: map[string]any{"shape": []any{48, 48}}},
		}},
		// Pad grows the frame the crop windows are placed in: the reuse
		// planner must see the padded geometry to locate the centered view.
		{"pad", config.OpSpec{Op: "pad", Params: map[string]any{"all": 4}}, []config.OpSpec{
			{Op: "center_crop", Params: map[string]any{"shape": []any{32, 32}}},
			crop(32, 32, 4, 4),
		}},
	}
	for _, d := range oracleDatasets(t) {
		for _, tc := range cases {
			t.Run(d.prefix+tc.name, func(t *testing.T) {
				task := overlapTask(t, "ov-"+tc.name, tc.prefix, tc.branches)
				oracleRows(t, []*config.Task{task}, d.ds, func(t *testing.T, rs ReuseStats, roomy bool) {
					if tc.name != "random" && roomy && rs.SupersetHits == 0 {
						t.Fatalf("superset never fired: %+v", rs)
					}
				})
			})
		}
	}
}

// TestSupersetSerialParallelIdentical: worker count must not leak into
// output bytes when the superset path races on derived-frame publication
// (first-in wins, all candidates identical). Four mutually overlapping
// views at uneven offsets run under the one-worker (serial) and
// eight-worker (fan-out) oracleEnvs; every batch of each must equal the
// oracle's.
func TestSupersetSerialParallelIdentical(t *testing.T) {
	task := overlapTask(t, "serpar", resize64, []config.OpSpec{
		crop(48, 48, 0, 0), crop(48, 48, 16, 16), crop(48, 48, 8, 4), crop(48, 48, 2, 12),
	})
	oracleRows(t, []*config.Task{task}, miniDataset(t, 4), func(t *testing.T, rs ReuseStats, roomy bool) {
		if roomy && rs.SupersetHits == 0 {
			t.Fatalf("superset never fired: %+v", rs)
		}
	})
}

// TestDisjointWindowsNoReuse: windows with no common pixels (including
// edge-adjacent ones) must not form a group — reuse is a no-op and every
// batch still equals the oracle's.
func TestDisjointWindowsNoReuse(t *testing.T) {
	task := overlapTask(t, "disjoint", resize64, []config.OpSpec{
		crop(16, 16, 0, 0), crop(16, 16, 48, 48), crop(16, 16, 16, 0),
	})
	for _, d := range oracleDatasets(t) {
		t.Run(d.name, func(t *testing.T) {
			oracleRows(t, []*config.Task{task}, d.ds, func(t *testing.T, rs ReuseStats, _ bool) {
				if rs.SupersetHits != 0 || rs.SupersetMisses != 0 {
					t.Fatalf("disjoint windows formed a reuse group: %+v", rs)
				}
			})
		})
	}
}

// staticMiniDataset builds videos whose frames are all identical — every
// P-frame residual is zero.
func staticMiniDataset(t testing.TB, n int) *dataset.Dataset {
	t.Helper()
	ds := &dataset.Dataset{Name: "static-mini"}
	for i := 0; i < n; i++ {
		base := frame.New(48, 48, 3)
		for j := range base.Pix {
			base.Pix[j] = byte((j*13 + i*37) % 251)
		}
		frames := make([]*frame.Frame, 40)
		for fi := range frames {
			g := base.Clone()
			g.Index = fi
			frames[fi] = g
		}
		clip, err := frame.NewClip(frames)
		if err != nil {
			t.Fatal(err)
		}
		v, err := codec.Encode(clip, codec.EncodeParams{GOP: 10, FPS: 30})
		if err != nil {
			t.Fatal(err)
		}
		spec := dataset.VideoSpec{
			Name: fmt.Sprintf("static_%04d", i),
			W:    48, H: 48, C: 3, Frames: 40, FPS: 30, GOP: 10,
			Label: "still",
		}
		ds.Videos = append(ds.Videos, dataset.Entry{Spec: spec, Video: v})
	}
	return ds
}

// batchOverlapTasks builds the two-task workload that makes cross-sample
// sharing visible. The measured task materializes four single-chain
// samples per video — a per-sample planner has nothing to group inside a
// single chain — whose random crops all resolve inside the shared
// coordination window and therefore overlap. The helper task exists only
// to widen that window (its crop requirement exceeds the measured one,
// so measured crops vary within the window instead of collapsing onto
// it); it samples one frame per video. Tags matter:
// the chunk planner sorts tasks alphabetically and places the window in
// tasks[0]'s pre-crop geometry, so the measured tag must sort first.
func batchOverlapTasks(tb testing.TB) (measured, helper *config.Task) {
	tb.Helper()
	measured = &config.Task{
		Tag:         "xs",
		Source:      config.SourceFile,
		DatasetPath: "/data/mini",
		Sampling:    config.Sampling{VideosPerBatch: 1, FramesPerVideo: 6, FrameStride: 2, SamplesPerVideo: 4},
		Stages: []config.Stage{
			{
				Name: "aug", Type: config.BranchSingle,
				Inputs: []string{"frame"}, Outputs: []string{"out"},
				Ops: []config.OpSpec{
					{Op: "resize", Params: map[string]any{"shape": []any{64, 64}}},
					{Op: "random_crop", Params: map[string]any{"shape": []any{48, 48}}},
				},
			},
		},
	}
	helper = &config.Task{
		Tag:         "zwin",
		Source:      config.SourceFile,
		DatasetPath: "/data/mini",
		Sampling:    config.Sampling{VideosPerBatch: 1, FramesPerVideo: 1, FrameStride: 1, SamplesPerVideo: 1},
		Stages: []config.Stage{
			{
				Name: "wide", Type: config.BranchSingle,
				Inputs: []string{"frame"}, Outputs: []string{"out"},
				Ops: []config.OpSpec{
					{Op: "resize", Params: map[string]any{"shape": []any{64, 64}}},
					{Op: "random_crop", Params: map[string]any{"shape": []any{56, 56}}},
				},
			},
		},
	}
	for _, t := range []*config.Task{measured, helper} {
		if err := t.Validate(); err != nil {
			tb.Fatal(err)
		}
	}
	return measured, helper
}

// TestBatchScopeByteIdentical: batch-scoped planning must fire across
// samples (nonzero cross-sample hits on a workload of single-chain
// samples) and every batch of both tasks must equal the oracle's.
func TestBatchScopeByteIdentical(t *testing.T) {
	measured, helper := batchOverlapTasks(t)
	for _, d := range oracleDatasets(t) {
		t.Run(d.name, func(t *testing.T) {
			oracleRows(t, []*config.Task{measured, helper}, d.ds, func(t *testing.T, rs ReuseStats, roomy bool) {
				if rs.XSampleGroups == 0 || (roomy && rs.XSampleHits == 0) {
					t.Fatalf("batch scope never fired across samples: %+v", rs)
				}
			})
		})
	}
}

// TestMiniTaskMatchesOracle: the plain single-chain resize -> random_crop
// task, with no superset groups to form, matches the oracle — at one
// worker the pool has no idle capacity and every chain runs serially, at
// eight chains fan out across frame positions.
func TestMiniTaskMatchesOracle(t *testing.T) {
	task := miniTask(t, "mini")
	for _, d := range oracleDatasets(t) {
		t.Run(d.name, func(t *testing.T) {
			oracleRows(t, []*config.Task{task}, d.ds, nil)
		})
	}
}

// partialMotionDataset builds videos where motion is spatially confined:
// source columns [0, 32) never change while columns [32, 48) are redrawn
// with large deltas every frame. Each video is one 40-frame GOP, so every
// sampled frame rolls forward from the same keyframe.
func partialMotionDataset(t testing.TB, n int) *dataset.Dataset {
	t.Helper()
	ds := &dataset.Dataset{Name: "partial-motion"}
	for i := 0; i < n; i++ {
		frames := make([]*frame.Frame, 40)
		for fi := range frames {
			f := frame.New(48, 48, 3)
			for c := 0; c < 3; c++ {
				plane := f.Plane(c)
				for y := 0; y < 48; y++ {
					for x := 0; x < 48; x++ {
						if x < 32 {
							plane[y*48+x] = byte((x*13 + y*7 + c*29 + i*41) % 251)
						} else {
							plane[y*48+x] = byte((x*31 + y*17 + c*11 + fi*53) % 251)
						}
					}
				}
			}
			f.Index = fi
			frames[fi] = f
		}
		clip, err := frame.NewClip(frames)
		if err != nil {
			t.Fatal(err)
		}
		v, err := codec.Encode(clip, codec.EncodeParams{GOP: 40, FPS: 30})
		if err != nil {
			t.Fatal(err)
		}
		spec := dataset.VideoSpec{
			Name: fmt.Sprintf("pm_%04d", i),
			W:    48, H: 48, C: 3, Frames: 40, FPS: 30, GOP: 40,
			Label: "partial",
		}
		ds.Videos = append(ds.Videos, dataset.Entry{Spec: spec, Video: v})
	}
	return ds
}
