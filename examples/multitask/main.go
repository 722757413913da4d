// Multi-task training (the Figure 13 scenario) on the REAL engine: two
// heterogeneous tasks — a SlowFast-style recognizer and an MAE-style
// self-supervised learner with different frame counts, strides and crop
// sizes — share one dataset under a single SAND service. The example
// reports the decode/object reuse the shared planner achieves.
package main

import (
	"fmt"
	"log"
	"os"

	"sand/internal/config"
	"sand/internal/core"
	"sand/internal/dataset"
)

func task(tag string, framesPerVideo, stride, samples, cropW, cropH int) *config.Task {
	return &config.Task{
		Tag:         tag,
		Source:      config.SourceFile,
		DatasetPath: "/dataset/shared",
		Sampling: config.Sampling{
			VideosPerBatch:  4,
			FramesPerVideo:  framesPerVideo,
			FrameStride:     stride,
			SamplesPerVideo: samples,
		},
		Stages: []config.Stage{
			{
				Name: "resize", Type: config.BranchSingle,
				Inputs: []string{"frame"}, Outputs: []string{"a0"},
				Ops: []config.OpSpec{{Op: "resize", Params: map[string]any{"shape": []any{72, 72}}}},
			},
			{
				Name: "crop", Type: config.BranchSingle,
				Inputs: []string{"a0"}, Outputs: []string{"a1"},
				Ops: []config.OpSpec{{Op: "random_crop", Params: map[string]any{"shape": []any{cropH, cropW}}}},
			},
		},
	}
}

func main() {
	ds, err := dataset.Kinetics400.Miniature(8, 96, 96, 80, 21)
	if err != nil {
		log.Fatal(err)
	}
	slowfast := task("slowfast", 8, 2, 1, 64, 64)
	mae := task("mae", 4, 4, 2, 48, 48)

	svc, err := core.New(core.Options{
		Tasks:       []*config.Task{slowfast, mae},
		Dataset:     ds,
		ChunkEpochs: 2,
		TotalEpochs: 2,
		Workers:     4,
		Coordinate:  true,
		Seed:        9,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	// Drive both "GPUs" epoch by epoch, interleaved like two Ray actors.
	for _, tag := range []string{"slowfast", "mae"} {
		loader, err := svc.NewLoader(tag)
		if err != nil {
			log.Fatal(err)
		}
		iters, _ := svc.ItersPerEpoch(tag)
		clips := 0
		for epoch := 0; epoch < 2; epoch++ {
			for it := 0; it < iters; it++ {
				batch, _, err := loader.Next(epoch, it)
				if err != nil {
					log.Fatal(err)
				}
				clips += batch.Len()
			}
		}
		w := 64
		if tag == "mae" {
			w = 48
		}
		fmt.Printf("task %-8s consumed %3d clips at %dx%d over 2 epochs\n", tag, clips, w, w)
	}

	reg := svc.Obs()
	count := func(name string) int64 {
		v, _ := reg.Query(name)
		return int64(v)
	}
	fmt.Printf("\nshared engine: %d frames decoded once for both tasks, %d cached objects reused\n",
		count("core.gop_frames_decoded"), count("core.objects_reused"))
	prematHits := count("core.premat_hits")
	fmt.Printf("pruning: %d collapses; batches pre-materialized before the GPUs asked: %d of %d\n",
		svc.PruneResult().Collapses, prematHits, prematHits+count("core.demand_misses"))
	fmt.Println()
	if err := reg.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
