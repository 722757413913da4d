package core

import (
	"crypto/sha256"
	"encoding/hex"
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

// overlapTask builds a resize -> multi(crop branches) -> merge pipeline:
// several views of the same 64x64 intermediate, each a crop stage given
// by op specs.
func overlapTask(t testing.TB, tag string, branches []config.OpSpec) *config.Task {
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
				Name: "resize", Type: config.BranchSingle,
				Inputs: []string{"frame"}, Outputs: []string{"base"},
				Ops: []config.OpSpec{{Op: "resize", Params: map[string]any{"shape": []any{64, 64}}}},
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

// buildReuseService starts a service with an effectively disabled object
// store (StorageBudget 1) so every chain recomputes unless the reuse
// layer shares work.
func buildReuseService(t testing.TB, task *config.Task, ds *dataset.Dataset, workers int, reuse ReuseOptions) *Service {
	t.Helper()
	return buildReuseServiceTasks(t, []*config.Task{task}, ds, workers, reuse)
}

func buildReuseServiceTasks(t testing.TB, tasks []*config.Task, ds *dataset.Dataset, workers int, reuse ReuseOptions) *Service {
	t.Helper()
	s, err := New(Options{
		Tasks:         tasks,
		Dataset:       ds,
		ChunkEpochs:   1,
		TotalEpochs:   1,
		MemBudget:     64 << 20,
		StorageBudget: 1,
		Workers:       workers,
		Coordinate:    true,
		Seed:          11,
		Reuse:         reuse,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// serviceDigest materializes every iteration of epoch 0 and hashes all
// output pixels in order.
func serviceDigest(t testing.TB, s *Service, tag string) string {
	t.Helper()
	loader, err := s.NewLoader(tag)
	if err != nil {
		t.Fatal(err)
	}
	iters, err := s.ItersPerEpoch(tag)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for it := 0; it < iters; it++ {
		batch, _, err := loader.Next(0, it)
		if err != nil {
			t.Fatal(err)
		}
		for _, clip := range batch.Clips {
			for _, f := range clip.Frames {
				fmt.Fprintf(h, "%d:%dx%dx%d:", f.Index, f.W, f.H, f.C)
				h.Write(f.Pix)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSupersetByteIdentical: for fixed, centered and shared-origin
// random crop views — including a 1-pixel overlap — the superset path
// must produce byte-identical batches to the per-chain baseline, and
// must actually fire. Each case runs over moving, perfectly static and
// spatially partial motion sources; subtests over the moving dataset
// carry the bare case name.
func TestSupersetByteIdentical(t *testing.T) {
	datasets := []struct {
		prefix string
		ds     *dataset.Dataset
	}{
		{"", miniDataset(t, 4)},
		{"static-", staticMiniDataset(t, 4)},
		{"partial-", partialMotionDataset(t, 3)},
	}
	cases := []struct {
		name     string
		branches []config.OpSpec
	}{
		{"fixed", []config.OpSpec{crop(48, 48, 0, 0), crop(48, 48, 16, 16), crop(48, 48, 8, 0), crop(48, 48, 0, 8)}},
		{"one-pixel", []config.OpSpec{crop(32, 32, 0, 0), crop(32, 32, 31, 31)}},
		{"centered", []config.OpSpec{
			{Op: "center_crop", Params: map[string]any{"shape": []any{48, 48}}},
			crop(48, 48, 0, 0),
		}},
		{"random", []config.OpSpec{
			{Op: "random_crop", Params: map[string]any{"shape": []any{48, 48}}},
			{Op: "random_crop", Params: map[string]any{"shape": []any{48, 48}}},
			{Op: "random_crop", Params: map[string]any{"shape": []any{48, 48}}},
		}},
	}
	for _, d := range datasets {
		for _, tc := range cases {
			t.Run(d.prefix+tc.name, func(t *testing.T) {
				task := overlapTask(t, "ov-"+tc.name, tc.branches)
				on := buildReuseService(t, task, d.ds, 4, ReuseOptions{})
				off := buildReuseService(t, task, d.ds, 4, ReuseOptions{DisableSuperset: true})
				dOn := serviceDigest(t, on, task.Tag)
				dOff := serviceDigest(t, off, task.Tag)
				if dOn != dOff {
					t.Fatalf("superset output differs from baseline (%s vs %s)", dOn[:12], dOff[:12])
				}
				rs := on.ReuseStats()
				if tc.name != "random" && rs.SupersetHits == 0 {
					t.Fatalf("superset never fired: %+v", rs)
				}
				if rsOff := off.ReuseStats(); rsOff.SupersetHits != 0 || rsOff.SupersetMisses != 0 {
					t.Fatalf("disabled superset still ran: %+v", rsOff)
				}
			})
		}
	}
}

// TestDisjointWindowsNoReuse: windows with no common pixels (including
// edge-adjacent ones) must not form a group — reuse is a no-op and the
// output matches the baseline.
func TestDisjointWindowsNoReuse(t *testing.T) {
	ds := miniDataset(t, 4)
	task := overlapTask(t, "disjoint", []config.OpSpec{
		crop(16, 16, 0, 0), crop(16, 16, 48, 48), crop(16, 16, 16, 0),
	})
	on := buildReuseService(t, task, ds, 4, ReuseOptions{})
	off := buildReuseService(t, task, ds, 4, ReuseOptions{DisableSuperset: true})
	if d1, d2 := serviceDigest(t, on, task.Tag), serviceDigest(t, off, task.Tag); d1 != d2 {
		t.Fatalf("disjoint-window output differs from baseline")
	}
	rs := on.ReuseStats()
	if rs.SupersetHits != 0 || rs.SupersetMisses != 0 {
		t.Fatalf("disjoint windows formed a reuse group: %+v", rs)
	}
}

// TestSupersetSerialParallelIdentical: worker count must not leak into
// output bytes when the superset path races on derived-frame publication
// (first-in wins, all candidates identical).
func TestSupersetSerialParallelIdentical(t *testing.T) {
	ds := miniDataset(t, 4)
	task := overlapTask(t, "serpar", []config.OpSpec{
		crop(48, 48, 0, 0), crop(48, 48, 16, 16), crop(48, 48, 8, 4), crop(48, 48, 2, 12),
	})
	digests := map[string]string{}
	for _, workers := range []int{1, 8} {
		for _, reuse := range []ReuseOptions{{}, {DisableSuperset: true}} {
			s := buildReuseService(t, task, ds, workers, reuse)
			key := fmt.Sprintf("w%d-sup%v", workers, !reuse.DisableSuperset)
			digests[key] = serviceDigest(t, s, task.Tag)
		}
	}
	want := digests["w1-supfalse"]
	for key, d := range digests {
		if d != want {
			t.Fatalf("digest %s differs from serial baseline (%v)", key, digests)
		}
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
// it); it samples one frame per video and is never read. Tags matter:
// the chunk planner sorts tasks alphabetically and places the window in
// tasks[0]'s pre-crop geometry, so the measured tag must sort first.
func batchOverlapTasks(tb testing.TB, suffix string) (measured, helper *config.Task) {
	tb.Helper()
	measured = &config.Task{
		Tag:         "xs" + suffix,
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
		Tag:         "zwin" + suffix,
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
// samples) and stay byte-identical to per-sample planning.
func TestBatchScopeByteIdentical(t *testing.T) {
	ds := miniDataset(t, 3)
	measured, helper := batchOverlapTasks(t, "-id")
	batch := buildReuseServiceTasks(t, []*config.Task{measured, helper}, ds, 4, ReuseOptions{})
	sample := buildReuseServiceTasks(t, []*config.Task{measured, helper}, ds, 4, ReuseOptions{DisableBatchScope: true})
	dBatch := serviceDigest(t, batch, measured.Tag)
	dSample := serviceDigest(t, sample, measured.Tag)
	if dBatch != dSample {
		t.Fatalf("batch-scoped output differs from per-sample baseline (%s vs %s)", dBatch[:12], dSample[:12])
	}
	rs := batch.ReuseStats()
	if rs.XSampleGroups == 0 || rs.XSampleHits == 0 {
		t.Fatalf("batch scope never fired across samples: %+v", rs)
	}
	if rsOff := sample.ReuseStats(); rsOff.XSampleHits != 0 || rsOff.XSampleGroups != 0 {
		t.Fatalf("per-sample planning produced cross-sample groups: %+v", rsOff)
	}
}

// TestBatchScopeSerialParallelIdentical: worker count must not leak into
// output bytes when cross-sample groups race on derived-frame
// publication.
func TestBatchScopeSerialParallelIdentical(t *testing.T) {
	ds := miniDataset(t, 3)
	measured, helper := batchOverlapTasks(t, "-sp")
	digests := map[string]string{}
	for _, workers := range []int{1, 8} {
		for _, reuse := range []ReuseOptions{{}, {DisableBatchScope: true}} {
			s := buildReuseServiceTasks(t, []*config.Task{measured, helper}, ds, workers, reuse)
			key := fmt.Sprintf("w%d-batch%v", workers, !reuse.DisableBatchScope)
			digests[key] = serviceDigest(t, s, measured.Tag)
		}
	}
	want := digests["w1-batchfalse"]
	for key, d := range digests {
		if d != want {
			t.Fatalf("digest %s differs from serial per-sample baseline (%v)", key, digests)
		}
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
