package core

import (
	"testing"

	"sand/internal/config"
	"sand/internal/dataset"
	"sand/internal/graph"
)

// BenchmarkOverlappingViews measures the multi-view hot path the
// superset-crop rewrite targets: four distinct crop views of one resized
// frame whose windows overlap heavily. (Distinct windows matter:
// coordinated random crops resolve to one shared window, i.e. identical
// chains the concrete-graph merge already unifies.) StorageBudget 1
// disables store-tier caching, so the "off" arm — materialized under a
// nil reuse plan — recomputes the shared resize prefix once per view
// while the "reuse" arm computes it once per source frame and serves
// every view as a sub-slice of the cached superset region.
func BenchmarkOverlappingViews(b *testing.B) {
	ds, err := dataset.Generate("ovbench", dataset.VideoSpec{
		W: 96, H: 96, C: 3, Frames: 40, FPS: 30, GOP: 10,
	}, 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"reuse", "off"} {
		b.Run(mode, func(b *testing.B) {
			task := &config.Task{
				Tag:         "ovb-" + mode,
				Source:      config.SourceFile,
				DatasetPath: "/data/ovbench",
				Sampling:    config.Sampling{VideosPerBatch: 2, FramesPerVideo: 4, FrameStride: 2, SamplesPerVideo: 1},
				Stages: []config.Stage{
					{
						Name: "resize", Type: config.BranchSingle,
						Inputs: []string{"frame"}, Outputs: []string{"base"},
						Ops: []config.OpSpec{{Op: "resize", Params: map[string]any{"shape": []any{80, 80}}}},
					},
					{
						Name: "views", Type: config.BranchMulti,
						Inputs: []string{"base"}, Outputs: []string{"v0", "v1", "v2", "v3"},
						Branches: []config.SubBranch{
							{Ops: []config.OpSpec{crop(64, 64, 0, 0)}},
							{Ops: []config.OpSpec{crop(64, 64, 16, 16)}},
							{Ops: []config.OpSpec{crop(64, 64, 8, 0)}},
							{Ops: []config.OpSpec{crop(64, 64, 0, 12)}},
						},
					},
					{
						Name: "join", Type: config.BranchMerge,
						Inputs: []string{"v0", "v1", "v2", "v3"}, Outputs: []string{"merged"},
					},
				},
			}
			if err := task.Validate(); err != nil {
				b.Fatal(err)
			}
			s, err := New(Options{
				Tasks:         []*config.Task{task},
				Dataset:       ds,
				ChunkEpochs:   2,
				TotalEpochs:   2,
				MemBudget:     64 << 20,
				StorageBudget: 1, // prune store caching: isolate decode+augment
				Workers:       4,
				Coordinate:    true,
				Seed:          5,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			samples, err := s.scheduleFor(iterationKey{task.Tag, 0, 0})
			if err != nil {
				b.Fatal(err)
			}
			if len(samples) == 0 {
				b.Fatal("no samples scheduled")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sm := samples[i%len(samples)]
				var plan *reusePlan
				if mode == "reuse" {
					plan = s.buildBatchReusePlan([]*graph.Sample{sm})
				}
				clip, err := s.materializeSampleAt(sm, 0, plan, 0, 0)
				if err != nil {
					b.Fatal(err)
				}
				if clip.Len() == 0 {
					b.Fatal("empty clip")
				}
			}
		})
	}
}

// BenchmarkBatchOverlappingViews measures what batch-scoped planning adds
// over per-sample planning: four single-chain samples per batch whose
// random crops overlap inside the shared coordination window. A
// per-sample plan ("sample" arm) has nothing to group — each sample is
// one chain — so every sample recomputes the resize prefix; the batch
// plan ("batch" arm) groups the samples' crops into one cross-sample
// superset served through the derived-frame store. The helper task only
// widens the shared crop window (it is never materialized); see
// batchOverlapTasks in reuse_test.go for the workload rationale.
func BenchmarkBatchOverlappingViews(b *testing.B) {
	ds, err := dataset.Generate("xsbench", dataset.VideoSpec{
		W: 96, H: 96, C: 3, Frames: 40, FPS: 30, GOP: 10,
	}, 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"batch", "sample"} {
		b.Run(mode, func(b *testing.B) {
			measured := &config.Task{
				Tag:         "xs-" + mode,
				Source:      config.SourceFile,
				DatasetPath: "/data/xsbench",
				Sampling:    config.Sampling{VideosPerBatch: 1, FramesPerVideo: 6, FrameStride: 2, SamplesPerVideo: 4},
				Stages: []config.Stage{
					{
						Name: "aug", Type: config.BranchSingle,
						Inputs: []string{"frame"}, Outputs: []string{"out"},
						Ops: []config.OpSpec{
							{Op: "resize", Params: map[string]any{"shape": []any{80, 80}}},
							{Op: "random_crop", Params: map[string]any{"shape": []any{64, 64}}},
						},
					},
				},
			}
			helper := &config.Task{
				Tag:         "zwin-" + mode,
				Source:      config.SourceFile,
				DatasetPath: "/data/xsbench",
				Sampling:    config.Sampling{VideosPerBatch: 1, FramesPerVideo: 1, FrameStride: 1, SamplesPerVideo: 1},
				Stages: []config.Stage{
					{
						Name: "wide", Type: config.BranchSingle,
						Inputs: []string{"frame"}, Outputs: []string{"out"},
						Ops: []config.OpSpec{
							{Op: "resize", Params: map[string]any{"shape": []any{80, 80}}},
							{Op: "random_crop", Params: map[string]any{"shape": []any{72, 72}}},
						},
					},
				},
			}
			for _, t := range []*config.Task{measured, helper} {
				if err := t.Validate(); err != nil {
					b.Fatal(err)
				}
			}
			s, err := New(Options{
				Tasks:         []*config.Task{measured, helper},
				Dataset:       ds,
				ChunkEpochs:   2,
				TotalEpochs:   2,
				MemBudget:     64 << 20,
				StorageBudget: 1, // prune store caching: isolate decode+augment
				// Hold the decoded corpus so both arms measure augmentation,
				// not decode amplification.
				GOPCacheBudget: 32 << 20,
				Workers:        4,
				Coordinate:     true,
				Seed:           5,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			samples, err := s.scheduleFor(iterationKey{measured.Tag, 0, 0})
			if err != nil {
				b.Fatal(err)
			}
			if len(samples) < 2 {
				b.Fatalf("want a multi-sample batch, got %d samples", len(samples))
			}
			// The "batch" loop body is materializeBatch without the
			// batch-payload encode both arms share; the "sample" arm plans
			// each sample on its own.
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "sample" {
					for _, sm := range samples {
						if _, err := s.materializeSampleClip(sm, 0, 0); err != nil {
							b.Fatal(err)
						}
					}
					continue
				}
				plan := s.buildBatchReusePlan(samples)
				for si, sm := range samples {
					if _, err := s.materializeSampleAt(sm, si, plan, 0, 0); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			if mode == "batch" {
				if s.xsampleHits.Load() == 0 {
					b.Fatal("batch arm produced no cross-sample hits")
				}
			}
		})
	}
}
